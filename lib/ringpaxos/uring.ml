type role = Acceptor | Proposer | Learner

type config = { f : int; durability : Mring.durability }

let default_config = { f = 2; durability = Mring.Memory }

(* Fixed settings: the coordinator's window of outstanding instances, its
   batch size (32 KB packets, §3.5.2), the age at which it seals a
   partial batch and its proposal buffer; the failure detector's
   heartbeat period and timeout; and the age at which a proposer
   resubmits an unacknowledged item. *)
let window = 64
let batch_bytes = 32 * 1024
let batch_timeout = 5.0e-4
let buffer_bytes = 80 * 1024 * 1024
let hb_period = 0.02
let hb_timeout = 0.25
let resubmit_timeout = 0.5

let hdr = 64

type Simnet.payload +=
  | UForward of Paxos.Value.item
  | UP1a of { rnd : int; coord : int }
  | UP1b of {
      rnd : int;
      acc : int;
      next : int;  (* the acceptor's contiguous delivery floor *)
      votes : (int * int * Paxos.Value.t) list;
    }
  | UP2ab of { inst : int; rnd : int; value : Paxos.Value.t; votes : int }
  | UDecision of { inst : int; value : Paxos.Value.t; origin : int; with_value : bool }
  | UHb of { coord : int }
  | UNewRing of { ring : int list; coord : int }

type member = {
  m_proc : Simnet.proc;
  m_pos : int;
  m_roles : role list;
  m_acc_idx : int;  (* -1 when not an acceptor *)
  m_lrn_idx : int;
  m_prop_idx : int;
  m_disk : Storage.Disk.t option;
  (* acceptor state *)
  mutable a_rnd : int;
  a_votes : (int, int * Paxos.Value.t) Hashtbl.t;
  (* learner state: decisions pending in-order release *)
  l_od : Paxos.Value.t Protocol.Ordered_delivery.t;
  (* every decision this member has learned, by instance.  Because the
     pump releases instances contiguously, the log is complete below
     [Ordered_delivery.next l_od] — which is what lets a coordinator
     serve catch-up for members cut off behind a dead ring segment. *)
  m_log : (int, Paxos.Value.t) Hashtbl.t;
  (* value-dissemination bookkeeping: instances seen via Phase 2A/2B *)
  m_seen : (int, unit) Hashtbl.t;
  (* proposer state *)
  p_pending : (int, Paxos.Value.item) Protocol.Retry.tracker;
  mutable p_unacked_bytes : int;
  mutable p_buffer : int;
  (* coordinator state (used by whichever member currently leads) *)
  mutable c_rnd : int;
  mutable c_phase1_ok : bool;
  mutable c_p1b : int;
  c_claimed : (int, int * Paxos.Value.t) Hashtbl.t;
  mutable c_next_inst : int;
  mutable c_outstanding : int;
  c_batch : unit Protocol.Batcher.t;
  c_seen_uids : Protocol.Uid_set.t;
      (* duplicate-proposal suppression: every uid admitted, delivered or
         claimed, as a floor plus the uids admitted out of order *)
  c_preq : Paxos.Value.item Queue.t;
      (* proposals received before Phase 1 completed, replayed in arrival
         order once [c_seen_uids] has been seeded *)
  mutable c_reports : (int * int) list;
      (* (position, delivery floor) reported by Phase 1 replies; served
         with catch-up decisions once Phase 1 completes *)
}

type t = {
  net : Simnet.t;
  cfg : config;
  members : member array;
  mutable ring : int list;  (* alive positions, ring order, coordinator first *)
  mutable coord_pos : int;
  acc_positions : int array;  (* position of acceptor i *)
  deliver : learner:int -> inst:int -> Paxos.Value.t -> unit;
  mutable fd : Protocol.Failure_detector.t option;
  mutable next_uid : int;
  mutable next_vid : int;
  mutable decided : int;
}

let standard_positions ~n = Array.make n [ Proposer; Acceptor; Learner ]

let coord t = t.members.(t.coord_pos)

let trace t f = match Simnet.tracer t.net with Some tr -> f tr | None -> ()

let successor t pos =
  let rec after = function
    | a :: b :: rest -> if a = pos then Some b else after (b :: rest)
    | [ a ] -> if a = pos then List.nth_opt t.ring 0 else None
    | [] -> None
  in
  match after t.ring with
  | Some next when next <> pos -> Some t.members.(next)
  | _ -> None

let is_acceptor m = m.m_acc_idx >= 0
let is_learner m = m.m_lrn_idx >= 0

let send_succ t m ~size payload =
  match successor t m.m_pos with
  | Some next -> Simnet.send t.net ~src:m.m_proc ~dst:next.m_proc ~size payload
  | None -> ()

(* --- delivery ----------------------------------------------------------- *)

let advance_deliveries t m =
  Protocol.Ordered_delivery.pump m.l_od (fun inst v ->
      if is_learner m then t.deliver ~learner:m.m_lrn_idx ~inst v;
      (* A proposer acknowledges its own items when it sees them decided. *)
      List.iter
        (fun (it : Paxos.Value.item) ->
          if Protocol.Retry.ack m.p_pending it.uid then
            m.p_unacked_bytes <- m.p_unacked_bytes - it.isize)
        v.Paxos.Value.items;
      true)

let record_decision t m inst v =
  Hashtbl.replace m.m_log inst v;
  if Protocol.Ordered_delivery.offer m.l_od ~inst v then advance_deliveries t m

(* --- coordinator --------------------------------------------------------- *)

let propose_instance t c inst (v : Paxos.Value.t) =
  trace t (fun tr ->
      Trace.abegin tr ~pid:(Simnet.pid c.m_proc) ~cat:"ordering" ~name:"consensus" ~id:inst
        ~ts:(Simnet.now t.net));
  c.c_outstanding <- c.c_outstanding + 1;
  (* The coordinator is the first acceptor: it votes locally, durably if
     configured, then starts the combined Phase 2A/2B down the ring. *)
  Hashtbl.replace c.a_votes inst (c.c_rnd, v);
  Hashtbl.replace c.m_seen inst ();
  let forward () = send_succ t c ~size:(v.size + hdr) (UP2ab { inst; rnd = c.c_rnd; value = v; votes = 1 }) in
  match (t.cfg.durability, c.m_disk) with
  | Mring.Sync_disk, Some d -> Storage.Disk.write_sync d ~bytes:v.size forward
  | Mring.Async_disk, Some d ->
      Storage.Disk.write_async d ~bytes:v.size;
      forward ()
  | _ -> forward ()

let rec drain t c =
  if c.c_phase1_ok && c.m_pos = t.coord_pos && Simnet.is_alive c.m_proc then begin
    let claimed = Hashtbl.fold (fun i x acc -> (i, x) :: acc) c.c_claimed [] in
    Hashtbl.reset c.c_claimed;
    List.iter
      (fun (inst, (_, v)) ->
        if (not (Protocol.Ordered_delivery.has c.l_od inst))
           && inst >= Protocol.Ordered_delivery.next c.l_od
        then propose_instance t c inst v;
        if inst >= c.c_next_inst then c.c_next_inst <- inst + 1)
      (List.sort compare claimed);
    while c.c_outstanding < window && Protocol.Batcher.ready c.c_batch <> None do
      propose_batch t c
    done;
    Protocol.Batcher.arm_timeout c.c_batch t.net ~timeout:batch_timeout (fun () ->
        if c.m_pos = t.coord_pos && Simnet.is_alive c.m_proc && c.c_phase1_ok
           && c.c_outstanding < window
        then propose_batch t c;
        drain t c)
  end

and propose_batch t c =
  match Protocol.Batcher.seal c.c_batch () with
  | [] -> ()
  | items ->
      t.next_vid <- t.next_vid + 1;
      let v = Paxos.Value.make ~vid:t.next_vid items in
      let inst = c.c_next_inst in
      c.c_next_inst <- inst + 1;
      propose_instance t c inst v

let start_phase1 t c =
  c.c_rnd <- Stdlib.max c.c_rnd c.a_rnd + Array.length t.members + 1;
  c.a_rnd <- Stdlib.max c.a_rnd c.c_rnd;
  c.c_phase1_ok <- false;
  c.c_p1b <- 0;
  c.c_reports <- [];
  (* The coordinator's own votes count toward Phase 1 too.  Without them,
     a decided instance whose only voter in the Phase 1 quorum is the
     coordinator itself would be replayed from a stale lower-round claim
     — deciding a different value for the same instance. *)
  Hashtbl.iter
    (fun inst ((vrnd, vval) : int * Paxos.Value.t) ->
      match Hashtbl.find_opt c.c_claimed inst with
      | Some (r, _) when r >= vrnd -> ()
      | _ -> Hashtbl.replace c.c_claimed inst (vrnd, vval))
    c.a_votes;
  Array.iter
    (fun pos ->
      let a = t.members.(pos) in
      if a.m_pos <> c.m_pos && Simnet.is_alive a.m_proc then
        Simnet.send t.net ~src:c.m_proc ~dst:a.m_proc ~size:hdr
          (UP1a { rnd = c.c_rnd; coord = c.m_pos }))
    t.acc_positions

(* --- ring message handling ------------------------------------------------ *)

(* Rank of a position in the current ring (coordinator = 0). *)
let ring_rank t pos =
  let rec go i = function
    | [] -> -1
    | p :: rest -> if p = pos then i else go (i + 1) rest
  in
  go 0 t.ring

(* Bytes of [v] the process at ring rank [k] has not yet seen: an item
   proposed at rank [r] crossed every rank > [r] on its way to the
   coordinator, and ranks that processed the Phase 2A/2B saw the whole
   batch.  Forwarding only the unseen bytes makes each value cross each
   link exactly once, which is the source of U-Ring Paxos's efficiency. *)
let unseen_bytes t next inst (v : Paxos.Value.t) =
  if Hashtbl.mem next.m_seen inst then 0
  else begin
    let k = ring_rank t next.m_pos in
    List.fold_left
      (fun acc (it : Paxos.Value.item) ->
        let origin_rank = ring_rank t (Paxos.Value.uid_origin it.uid) in
        if origin_rank >= 0 && k > origin_rank then acc else acc + it.isize)
      0 v.items
  end

let forward_decision t m inst v origin =
  match successor t m.m_pos with
  | Some next when next.m_pos <> origin ->
      let payload_bytes = unseen_bytes t next inst v in
      Simnet.send t.net ~src:m.m_proc ~dst:next.m_proc ~size:(payload_bytes + hdr)
        (UDecision { inst; value = v; origin; with_value = payload_bytes > 0 })
  | _ -> ()

(* Re-send the decisions a Phase 1 reply revealed the sender is missing:
   a member downstream of a dead ring position loses the decisions that
   were in flight through it and, with the ring since rebuilt around the
   gap, would otherwise never learn them.  The coordinator's [m_log] is
   complete below its own delivery floor, so it can serve any instance in
   [from, floor). *)
let catchup t c ~pos ~from =
  let upto = Protocol.Ordered_delivery.next c.l_od in
  if pos <> c.m_pos && from < upto then begin
    let dst = t.members.(pos) in
    (* A catch-up decision is point-to-point: claim the receiver's
       successor as origin so [forward_decision] stops immediately. *)
    let origin =
      match successor t dst.m_pos with Some s -> s.m_pos | None -> dst.m_pos
    in
    for inst = from to upto - 1 do
      match Hashtbl.find_opt c.m_log inst with
      | Some v ->
          Simnet.send t.net ~src:c.m_proc ~dst:dst.m_proc ~size:(v.size + hdr)
            (UDecision { inst; value = v; origin; with_value = true })
      | None -> ()
    done
  end

let on_p2ab t m inst rnd (v : Paxos.Value.t) votes =
  Hashtbl.replace m.m_seen inst ();
  let continue votes =
    if votes >= t.cfg.f + 1 then begin
      (* This member closes the quorum: it is the "last acceptor". *)
      trace t (fun tr ->
          let now = Simnet.now t.net in
          (* The interval was opened on the proposing coordinator. *)
          Trace.aend tr ~pid:(Simnet.pid (coord t).m_proc) ~cat:"ordering" ~name:"consensus"
            ~id:inst ~ts:now;
          Trace.instant tr ~id:inst ~pid:(Simnet.pid m.m_proc) ~cat:"proto" ~name:"decision"
            ~ts:now);
      t.decided <- t.decided + 1;
      record_decision t m inst v;
      forward_decision t m inst v m.m_pos
    end
    else send_succ t m ~size:(v.size + hdr) (UP2ab { inst; rnd; value = v; votes })
  in
  if is_acceptor m && rnd >= m.a_rnd then begin
    m.a_rnd <- rnd;
    Hashtbl.replace m.a_votes inst (rnd, v);
    let votes = votes + 1 in
    match (t.cfg.durability, m.m_disk) with
    | Mring.Sync_disk, Some d -> Storage.Disk.write_sync d ~bytes:v.size (fun () -> continue votes)
    | Mring.Async_disk, Some d ->
        Storage.Disk.write_async d ~bytes:v.size;
        let lag = Storage.Disk.backlog d ~now:(Simnet.now t.net) -. 0.05 in
        if lag > 0.0 then ignore (Simnet.after t.net lag (fun () -> continue votes))
        else continue votes
    | _ -> continue votes
  end
  else continue votes

let on_decision t m inst (v : Paxos.Value.t) origin =
  record_decision t m inst v;
  if m.m_pos = t.coord_pos then begin
    m.c_outstanding <- Stdlib.max 0 (m.c_outstanding - 1);
    drain t m
  end;
  forward_decision t m inst v origin

(* --- failures -------------------------------------------------------------- *)

let rebuild_ring t new_coord_pos =
  let alive =
    Array.to_list t.members
    |> List.filter (fun m -> Simnet.is_alive m.m_proc)
    |> List.map (fun m -> m.m_pos)
  in
  (* Keep ring order, rotated so the coordinator is first. *)
  let rec rotate = function
    | [] -> []
    | x :: rest as l -> if x = new_coord_pos then l else rotate (rest @ [ x ])
  in
  t.ring <- rotate alive;
  t.coord_pos <- new_coord_pos;
  let c = t.members.(new_coord_pos) in
  (* A fresh coordinator must not reuse instances already delivered. *)
  c.c_next_inst <-
    Hashtbl.fold (fun i _ acc -> Stdlib.max (i + 1) acc) c.a_votes
      (Stdlib.max c.c_next_inst (Protocol.Ordered_delivery.next c.l_od));
  (* Instances that were in flight when the ring broke will be re-proposed
     from the Phase 1 claims and counted afresh; carrying their old count
     over would wedge the window shut (each replay decides only once but
     would have been counted twice). *)
  c.c_outstanding <- 0;
  List.iter
    (fun pos ->
      let m = t.members.(pos) in
      if pos <> new_coord_pos then
        Simnet.send t.net ~src:c.m_proc ~dst:m.m_proc ~size:hdr
          (UNewRing { ring = t.ring; coord = new_coord_pos }))
    t.ring;
  start_phase1 t c

(* While the coordinator lives it pings ring members (dead ones trigger a
   reconfiguration that bypasses them); once it dies, the first alive
   acceptor in ring order whose heartbeats went stale takes over. *)
let failure_detection t =
  let emit () =
    let c = coord t in
    let dead = List.filter (fun p -> not (Simnet.is_alive t.members.(p).m_proc)) t.ring in
    if dead <> [] then rebuild_ring t t.coord_pos
    else
      List.iter
        (fun p ->
          if p <> t.coord_pos then
            Simnet.send t.net ~src:c.m_proc ~dst:t.members.(p).m_proc ~size:hdr
              (UHb { coord = t.coord_pos }))
        t.ring
  in
  let on_suspect ~stale =
    let candidate =
      Array.to_list t.acc_positions
      |> List.filter (fun p -> Simnet.is_alive t.members.(p).m_proc && stale p)
      |> function
      | [] -> None
      | p :: _ -> Some p
    in
    match candidate with Some p -> rebuild_ring t p | None -> ()
  in
  t.fd <-
    Some
      (Protocol.Failure_detector.create t.net ~hb_period ~hb_timeout
         ~leader:(fun () -> Simnet.is_alive (coord t).m_proc)
         ~emit ~on_suspect)

let heard_from_coord t m =
  match t.fd with
  | Some fd -> Protocol.Failure_detector.heartbeat fd m.m_pos
  | None -> ()

let prop_resubmission t m =
  ignore
    (Protocol.Retry.every t.net ~name:"resubmit" ~period:resubmit_timeout (fun () ->
         if Simnet.is_alive m.m_proc && m.m_prop_idx >= 0 then
           Protocol.Retry.iter_due m.p_pending ~now_tk:(Simnet.now_tk t.net)
             ~older_than:resubmit_timeout
             (fun _uid (it : Paxos.Value.item) ->
               send_succ t m ~size:(it.isize + hdr) (UForward it))))

(* --- handler ----------------------------------------------------------------- *)

(* Admit a proposal into the coordinator's batch.  Must only run once
   Phase 1 has completed: before that the coordinator cannot know which
   items are already decided, and a proposer resubmission (a member whose
   delivery is lagging keeps retrying items that were in fact decided)
   would get the same item decided under a second instance. *)
let coord_admit c (item : Paxos.Value.item) =
  if not (Protocol.Uid_set.mem c.c_seen_uids item.uid) then
    if Protocol.Batcher.enqueue c.c_batch ~key:() item then begin
      Protocol.Uid_set.add c.c_seen_uids item.uid;
      true
    end
    else false
  else false

let handler t m (msg : Simnet.msg) =
  match msg.payload with
  | UForward item ->
      if m.m_pos = t.coord_pos then begin
        if not m.c_phase1_ok then Queue.push item m.c_preq
        else if coord_admit m item then drain t m
      end
      else send_succ t m ~size:(item.isize + hdr) (UForward item)
  | UP1a { rnd; coord } ->
      if rnd > m.a_rnd then begin
        m.a_rnd <- rnd;
        let votes = Hashtbl.fold (fun i (vr, vv) l -> (i, vr, vv) :: l) m.a_votes [] in
        Simnet.send t.net ~src:m.m_proc ~dst:t.members.(coord).m_proc
          ~size:(hdr + (List.length votes * 24))
          (UP1b
             { rnd;
               acc = m.m_acc_idx;
               next = Protocol.Ordered_delivery.next m.l_od;
               votes })
      end
  | UP1b { rnd; acc; next; votes } ->
      if m.m_pos = t.coord_pos && rnd = m.c_rnd then begin
        let pos = t.acc_positions.(acc) in
        if m.c_phase1_ok then
          (* A straggler reply past quorum: no claims to merge (the round
             is settled), but its delivery floor may still reveal a gap
             worth serving. *)
          catchup t m ~pos ~from:next
        else begin
          List.iter
            (fun (inst, vrnd, vval) ->
              match Hashtbl.find_opt m.c_claimed inst with
              | Some (r, _) when r >= vrnd -> ()
              | _ -> Hashtbl.replace m.c_claimed inst (vrnd, vval))
            votes;
          m.c_reports <- (pos, next) :: m.c_reports;
          m.c_p1b <- m.c_p1b + 1;
          if m.c_p1b + 1 >= (Array.length t.acc_positions / 2) + 1 then begin
            m.c_phase1_ok <- true;
            (* Mark every item known decided or voted as seen, so proposer
               resubmissions of them are not re-decided under fresh
               instances: the log covers everything this member delivered,
               the claims (own votes included) everything the quorum
               voted.  Undecided claims are replayed by [drain], so
               suppressing their resubmission loses nothing. *)
            let see (v : Paxos.Value.t) =
              List.iter (fun it -> Protocol.Uid_set.add m.c_seen_uids it.Paxos.Value.uid) v.items
            in
            Hashtbl.iter (fun _ v -> see v) m.m_log;
            Hashtbl.iter (fun _ ((_, v) : int * Paxos.Value.t) -> see v) m.c_claimed;
            (* Serve the delivery gaps the Phase 1 replies revealed. *)
            List.iter (fun (pos, from) -> catchup t m ~pos ~from) m.c_reports;
            m.c_reports <- [];
            (* Replay proposals buffered during Phase 1, in arrival order. *)
            while not (Queue.is_empty m.c_preq) do
              ignore (coord_admit m (Queue.pop m.c_preq))
            done;
            drain t m
          end
        end
      end
  | UP2ab { inst; rnd; value; votes } -> on_p2ab t m inst rnd value votes
  | UDecision { inst; value; origin; with_value = _ } -> on_decision t m inst value origin
  | UHb { coord = _ } -> heard_from_coord t m
  | UNewRing { ring; coord } ->
      t.ring <- ring;
      t.coord_pos <- coord;
      heard_from_coord t m
  | _ -> ()

(* --- construction --------------------------------------------------------------- *)

let create net cfg ~positions ~deliver =
  let n = Array.length positions in
  let n_accs = Array.fold_left (fun acc rs -> if List.mem Acceptor rs then acc + 1 else acc) 0 positions in
  if n_accs < (2 * cfg.f) + 1 then
    invalid_arg "Uring.create: needs at least 2f+1 acceptor positions";
  let acc_count = ref 0 and lrn_count = ref 0 and prop_count = ref 0 in
  let members =
    Array.init n (fun i ->
        let roles = positions.(i) in
        let node = Simnet.add_node net (Printf.sprintf "ur-%d" i) in
        let proc = Simnet.add_proc net node (Printf.sprintf "ur-%d" i) in
        let m_acc_idx =
          if List.mem Acceptor roles then begin
            let k = !acc_count in
            incr acc_count;
            k
          end
          else -1
        in
        let m_lrn_idx =
          if List.mem Learner roles then begin
            let k = !lrn_count in
            incr lrn_count;
            k
          end
          else -1
        in
        let m_prop_idx =
          if List.mem Proposer roles then begin
            let k = !prop_count in
            incr prop_count;
            k
          end
          else -1
        in
        let m_disk =
          if m_acc_idx >= 0 && cfg.durability <> Mring.Memory then
            Some (Storage.Disk.create (Simnet.engine net) (Printf.sprintf "ur-disk%d" i))
          else None
        in
        { m_proc = proc;
          m_pos = i;
          m_roles = roles;
          m_acc_idx;
          m_lrn_idx;
          m_prop_idx;
          m_disk;
          a_rnd = 0;
          a_votes = Hashtbl.create 4096;
          l_od = Protocol.Ordered_delivery.create ();
          m_log = Hashtbl.create 4096;
          m_seen = Hashtbl.create 4096;
          p_pending = Protocol.Retry.tracker ();
          p_unacked_bytes = 0;
          p_buffer = 2 * 1024 * 1024;
          c_rnd = 0;
          c_phase1_ok = false;
          c_p1b = 0;
          c_claimed = Hashtbl.create 64;
          c_next_inst = 0;
          c_outstanding = 0;
          c_batch =
            Protocol.Batcher.create ~buffer_bytes ~batch_bytes ();
          c_seen_uids = Protocol.Uid_set.create ();
          c_preq = Queue.create ();
          c_reports = [] })
  in
  (* The coordinator is the first acceptor in ring order. *)
  let coord_pos =
    let rec find i = if members.(i).m_acc_idx = 0 then i else find (i + 1) in
    find 0
  in
  let acc_positions = Array.make n_accs 0 in
  Array.iter (fun m -> if m.m_acc_idx >= 0 then acc_positions.(m.m_acc_idx) <- m.m_pos) members;
  (* Ring order starts at the coordinator. *)
  let ring = List.init n (fun i -> (coord_pos + i) mod n) in
  let t =
    { net; cfg; members; ring; coord_pos; acc_positions; deliver;
      fd = None; next_uid = 0; next_vid = 0; decided = 0 }
  in
  Array.iter
    (fun m ->
      Simnet.set_handler m.m_proc (handler t m);
      if m.m_prop_idx >= 0 then prop_resubmission t m)
    members;
  failure_detection t;
  start_phase1 t members.(coord_pos);
  t

let submit t ~proposer ~size app =
  let m = Array.to_list t.members |> List.find (fun m -> m.m_prop_idx = proposer) in
  if m.p_unacked_bytes + size > m.p_buffer then -1
  else begin
    t.next_uid <- t.next_uid + 1;
    (* The uid encodes the originating ring position, so forwarding can
       tell which processes already saw an item on its way to the
       coordinator (the value crosses each link exactly once, §3.3.3). *)
    let uid = Paxos.Value.make_uid ~seq:t.next_uid ~origin:m.m_pos in
    let item = { Paxos.Value.uid; isize = size; app; born = Simnet.now t.net } in
    Protocol.Retry.watch m.p_pending ~now_tk:(Simnet.now_tk t.net) uid item;
    m.p_unacked_bytes <- m.p_unacked_bytes + size;
    if m.m_pos = t.coord_pos then begin
      if not m.c_phase1_ok then Queue.push item m.c_preq
      else if coord_admit m item then drain t m
    end
    else send_succ t m ~size:(size + hdr) (UForward item);
    uid
  end

let coordinator_proc t = (coord t).m_proc
let position_proc t i = t.members.(i).m_proc

let learner_proc t i =
  (Array.to_list t.members |> List.find (fun m -> m.m_lrn_idx = i)).m_proc

let proposer_proc t i =
  (Array.to_list t.members |> List.find (fun m -> m.m_prop_idx = i)).m_proc

let kill_position t i = Simnet.kill t.net t.members.(i).m_proc
let kill_coordinator t = Simnet.kill t.net (coord t).m_proc

let decided t = t.decided

let disk t i =
  if i < Array.length t.acc_positions then t.members.(t.acc_positions.(i)).m_disk else None
