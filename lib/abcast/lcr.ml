type config = {
  n : int;
  durability : Ringpaxos.Mring.durability;
}

let default_config = { n = 5; durability = Ringpaxos.Mring.Memory }

(* Cadence of the stability announcements. *)
let clock_period = 2.0e-3

let hdr = 48

type Simnet.payload +=
  | Body of { sender : int; ts : int; value : Paxos.Value.t }
  | Clock of { origin : int; clock : int }

module Key = struct
  type t = int * int (* ts, sender *)

  let compare = compare
end

module Pending = Map.Make (Key)

type member = {
  m_proc : Simnet.proc;
  m_idx : int;
  m_disk : Storage.Disk.t option;
  mutable m_clock : int;
  m_known : int array;  (* last announced clock per member *)
  m_seen : int array;  (* highest body timestamp stored per sender *)
  mutable m_pending : Paxos.Value.t Pending.t;
  mutable m_unacked_bytes : int;  (* own bodies not yet delivered locally *)
  mutable m_buffer : int;
}

type t = {
  net : Simnet.t;
  cfg : config;
  members : member array;
  mutable ring : int list;  (* alive members, ring order *)
  deliver : learner:int -> Paxos.Value.t -> unit;
  mutable next_uid : int;
  mutable delivered : int;
}

let successor t idx =
  let rec after = function
    | a :: b :: rest -> if a = idx then Some b else after (b :: rest)
    | [ a ] -> if a = idx then List.nth_opt t.ring 0 else None
    | [] -> None
  in
  match after t.ring with
  | Some nxt when nxt <> idx -> Some t.members.(nxt)
  | _ -> None

let alive t idx = Simnet.is_alive t.members.(idx).m_proc

(* Deliver every pending body whose timestamp is covered by what all alive
   members have announced: no earlier-stamped body can still be in flight
   (announcements travel FIFO behind the bodies they cover). *)
let try_deliver t m =
  let bound = ref max_int in
  Array.iteri (fun q c -> if alive t q then bound := Stdlib.min !bound c) m.m_known;
  let continue = ref true in
  while !continue do
    match Pending.min_binding_opt m.m_pending with
    | Some ((ts, sender), v) when ts <= !bound ->
        m.m_pending <- Pending.remove (ts, sender) m.m_pending;
        if sender = m.m_idx then
          m.m_unacked_bytes <- m.m_unacked_bytes - v.Paxos.Value.size;
        if m.m_idx = 0 then t.delivered <- t.delivered + 1;
        t.deliver ~learner:m.m_idx v
    | _ -> continue := false
  done

let store_body t m sender ts (v : Paxos.Value.t) =
  m.m_clock <- Stdlib.max m.m_clock ts + 1;
  m.m_known.(sender) <- Stdlib.max m.m_known.(sender) ts;
  m.m_pending <- Pending.add (ts, sender) v m.m_pending;
  try_deliver t m

let forward_body t m sender ts v =
  match successor t m.m_idx with
  | Some next when next.m_idx <> sender ->
      Simnet.send t.net ~src:m.m_proc ~dst:next.m_proc ~size:(v.Paxos.Value.size + hdr)
        (Body { sender; ts; value = v })
  | _ -> ()

let handler t m (msg : Simnet.msg) =
  match msg.payload with
  | Body { sender; ts; value } ->
      (* Per-sender timestamps are strictly increasing and links are FIFO,
         so anything at or below the watermark is a duplicate.  Without
         this check a body whose sender has been removed from the ring
         circulates forever: the forwarding stop condition ("next hop is
         the sender") can no longer trigger, and every revolution would
         re-store and re-deliver it. *)
      if ts <= m.m_seen.(sender) then ()
      else begin
      m.m_seen.(sender) <- ts;
      let continue () =
        store_body t m sender ts value;
        forward_body t m sender ts value
      in
      (match (t.cfg.durability, m.m_disk) with
      | Ringpaxos.Mring.Sync_disk, Some d ->
          Storage.Disk.write_sync d ~bytes:value.size continue
      | Ringpaxos.Mring.Async_disk, Some d ->
          Storage.Disk.write_async d ~bytes:value.size;
          continue ()
      | _ -> continue ())
      end
  | Clock { origin; clock } ->
      m.m_known.(origin) <- Stdlib.max m.m_known.(origin) clock;
      (match successor t m.m_idx with
      | Some next when next.m_idx <> origin ->
          Simnet.send t.net ~src:m.m_proc ~dst:next.m_proc ~size:hdr (Clock { origin; clock })
      | _ -> ());
      try_deliver t m
  | _ -> ()

let clock_loop t m =
  let (_stop : unit -> unit) =
    Simnet.every t.net ~period:clock_period (fun () ->
        if Simnet.is_alive m.m_proc then begin
          m.m_known.(m.m_idx) <- m.m_clock;
          match successor t m.m_idx with
          | Some next ->
              Simnet.send t.net ~src:m.m_proc ~dst:next.m_proc ~size:hdr
                (Clock { origin = m.m_idx; clock = m.m_clock })
          | None -> ()
        end)
  in
  ()

let create net cfg ~deliver =
  let members =
    Array.init cfg.n (fun i ->
        let node = Simnet.add_node net (Printf.sprintf "lcr-%d" i) in
        let proc = Simnet.add_proc net node (Printf.sprintf "lcr-%d" i) in
        let disk =
          if cfg.durability <> Ringpaxos.Mring.Memory then
            Some (Storage.Disk.create (Simnet.engine net) (Printf.sprintf "lcr-disk%d" i))
          else None
        in
        { m_proc = proc;
          m_idx = i;
          m_disk = disk;
          m_clock = 0;
          m_known = Array.make cfg.n 0;
          m_seen = Array.make cfg.n 0;
          m_pending = Pending.empty;
          m_unacked_bytes = 0;
          m_buffer = 2 * 1024 * 1024 })
  in
  let t =
    { net;
      cfg;
      members;
      ring = List.init cfg.n Fun.id;
      deliver;
      next_uid = 0;
      delivered = 0 }
  in
  Array.iter
    (fun m ->
      Simnet.set_handler m.m_proc (handler t m);
      clock_loop t m)
    members;
  t

let broadcast t ~from ~size app =
  let m = t.members.(from) in
  if m.m_unacked_bytes + size > m.m_buffer then false
  else begin
    t.next_uid <- t.next_uid + 1;
    let v =
      Paxos.Value.single ~vid:t.next_uid ~uid:t.next_uid ~size ~born:(Simnet.now t.net) app
    in
    m.m_clock <- m.m_clock + 1;
    let ts = m.m_clock in
    m.m_seen.(m.m_idx) <- ts;
    m.m_unacked_bytes <- m.m_unacked_bytes + size;
    store_body t m m.m_idx ts v;
    forward_body t m m.m_idx ts v;
    true
  end

let proc t i = t.members.(i).m_proc

let kill t i =
  Simnet.kill t.net t.members.(i).m_proc;
  (* LCR assumes perfect failure detection: the ring is rebuilt at once. *)
  t.ring <- List.filter (fun j -> j <> i) t.ring

let delivered t = t.delivered

let disk t i = t.members.(i).m_disk
