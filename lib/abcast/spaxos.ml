type config = {
  f : int;
  batch_bytes : int;
  batch_timeout : float;
  window : int;
  gc_pause : float;
  hb_period : float;
  hb_timeout : float;
}

let default_config =
  { f = 1;
    batch_bytes = 32 * 1024;
    batch_timeout = 5.0e-4;
    window = 64;
    gc_pause = 0.03;
    hb_period = 0.02;
    hb_timeout = 0.25 }

(* Marshaling and dissemination CPU per batch, charged at each replica. *)
let cpu_per_batch = 3.0e-4

(* Mean interval between GC pauses, seconds. *)
let gc_pause_every = 0.4

let hdr = 64

type bid = int * int (* replica, seq *)

type Simnet.payload +=
  | Request of Paxos.Value.item
  | Forward of { bid : bid; value : Paxos.Value.t }
  | BatchAck of { bid : bid; from : int }
  | Order2a of { inst : int; rnd : int; bid : bid }
  | Order2b of { inst : int; rnd : int; from : int }
  | OrderDec of { inst : int; bid : bid }
  | SHb of { from : int }

type batch_info = {
  mutable b_value : Paxos.Value.t option;
  b_ackers : (int, unit) Hashtbl.t;  (* replicas known to hold the batch *)
}

type replica = {
  r_proc : Simnet.proc;
  r_client : Simnet.proc;  (* client stub feeding this replica *)
  r_idx : int;
  (* batching of locally received client requests *)
  r_batch : unit Protocol.Batcher.t;
  mutable r_inflight : int;  (* client bytes submitted, not yet sealed *)
  mutable r_next_seq : int;
  (* batch store *)
  r_batches : (bid, batch_info) Hashtbl.t;
  (* leader state *)
  mutable r_is_leader : bool;
  mutable r_rnd : int;
  mutable r_next_inst : int;
  mutable r_outstanding : int;
  r_unordered : bid Queue.t;
  r_proposals : (int, bid) Hashtbl.t;  (* leader: inst -> bid, pre-quorum *)
  r_votes : (int, int) Hashtbl.t;
  (* learner state *)
  mutable r_next_del : int;
  r_decisions : (int, bid) Hashtbl.t;
  r_delivered_bids : (bid, unit) Hashtbl.t;
}

type t = {
  net : Simnet.t;
  cfg : config;
  rng : Sim.Rng.t;
  replicas : replica array;
  deliver : learner:int -> Paxos.Value.t -> unit;
  mutable fd : Protocol.Failure_detector.t option;
  mutable next_uid : int;
  mutable delivered : int;
}

let n t = Array.length t.replicas

let leader t =
  let found = ref None in
  Array.iter
    (fun r -> if r.r_is_leader && Simnet.is_alive r.r_proc && !found = None then found := Some r)
    t.replicas;
  !found

let info_of r bid =
  match Hashtbl.find_opt r.r_batches bid with
  | Some i -> i
  | None ->
      let i = { b_value = None; b_ackers = Hashtbl.create 8 } in
      Hashtbl.add r.r_batches bid i;
      i

let stable t r bid =
  match Hashtbl.find_opt r.r_batches bid with
  | Some i -> i.b_value <> None && Hashtbl.length i.b_ackers >= t.cfg.f + 1
  | None -> false

let rec try_deliver t r =
  match Hashtbl.find_opt r.r_decisions r.r_next_del with
  | Some bid when stable t r bid -> begin
      match Hashtbl.find_opt r.r_batches bid with
      | Some { b_value = Some v; _ } ->
          Hashtbl.remove r.r_decisions r.r_next_del;
          r.r_next_del <- r.r_next_del + 1;
          if not (Hashtbl.mem r.r_delivered_bids bid) then begin
            Hashtbl.add r.r_delivered_bids bid ();
            if r.r_idx = 0 then t.delivered <- t.delivered + 1;
            t.deliver ~learner:r.r_idx v
          end;
          try_deliver t r
      | _ -> ()
    end
  | _ -> ()

(* --- leader ordering (Paxos on batch ids) ------------------------------- *)

let rec order_drain t l =
  if l.r_is_leader && Simnet.is_alive l.r_proc then
    while l.r_outstanding < t.cfg.window && not (Queue.is_empty l.r_unordered) do
      let bid = Queue.pop l.r_unordered in
      let inst = l.r_next_inst in
      l.r_next_inst <- inst + 1;
      l.r_outstanding <- l.r_outstanding + 1;
      Hashtbl.replace l.r_votes inst 0;
      Array.iter
        (fun r ->
          if r.r_idx <> l.r_idx then
            Simnet.send t.net ~src:l.r_proc ~dst:r.r_proc ~size:hdr
              (Order2a { inst; rnd = l.r_rnd; bid }))
        t.replicas;
      Hashtbl.replace l.r_proposals inst bid
    done

and on_order2b t l inst =
  match Hashtbl.find_opt l.r_votes inst with
  | Some k ->
      let k = k + 1 in
      Hashtbl.replace l.r_votes inst k;
      (* Counting the leader's own vote, f more replies close the quorum. *)
      if k = t.cfg.f then begin
        l.r_outstanding <- l.r_outstanding - 1;
        let bid = Hashtbl.find l.r_proposals inst in
        Hashtbl.remove l.r_proposals inst;
        Hashtbl.replace l.r_decisions inst bid;
        Array.iter
          (fun r ->
            if r.r_idx <> l.r_idx then
              Simnet.send t.net ~src:l.r_proc ~dst:r.r_proc ~size:hdr (OrderDec { inst; bid }))
          t.replicas;
        try_deliver t l;
        order_drain t l
      end
  | None -> ()

(* --- batching ------------------------------------------------------------ *)

let disseminate t r =
  match Protocol.Batcher.seal r.r_batch () with
  | [] -> ()
  | items ->
      r.r_next_seq <- r.r_next_seq + 1;
      let bid = (r.r_idx, r.r_next_seq) in
      t.next_uid <- t.next_uid + 1;
      let v = Paxos.Value.make ~vid:t.next_uid items in
      r.r_inflight <- Stdlib.max 0 (r.r_inflight - v.size);
      let info = info_of r bid in
      info.b_value <- Some v;
      Hashtbl.replace info.b_ackers r.r_idx ();
      Simnet.charge_cpu t.net r.r_proc cpu_per_batch;
      Array.iter
        (fun q ->
          if q.r_idx <> r.r_idx then
            Simnet.send t.net ~src:r.r_proc ~dst:q.r_proc ~size:(v.size + hdr)
              (Forward { bid; value = v }))
        t.replicas;
      (* Hand the id to the leader for ordering. *)
      (match leader t with
      | Some l when l.r_idx = r.r_idx ->
          Queue.push bid l.r_unordered;
          order_drain t l
      | _ -> ())

(* The seal threshold counts submitted bytes still in flight from the client
   stubs, not just arrived ones, mirroring S-Paxos's client-side batching. *)
let rec batch_tick t r =
  if r.r_inflight >= t.cfg.batch_bytes then disseminate t r
  else
    Protocol.Batcher.arm_timeout r.r_batch t.net ~timeout:t.cfg.batch_timeout (fun () ->
        if Simnet.is_alive r.r_proc then begin
          disseminate t r;
          batch_tick t r
        end)

(* --- GC pauses ------------------------------------------------------------ *)

let rec gc_loop t r =
  let delay = Sim.Rng.exponential t.rng ~mean:gc_pause_every in
  ignore
    (Simnet.after t.net delay (fun () ->
         if Simnet.is_alive r.r_proc then begin
           let pause = Sim.Rng.exponential t.rng ~mean:t.cfg.gc_pause in
           Simnet.charge_cpu t.net r.r_proc pause;
           gc_loop t r
         end))

(* --- leader failover -------------------------------------------------------- *)

let failure_detection t =
  let emit () =
    match leader t with
    | Some l ->
        Array.iter
          (fun r ->
            if r.r_idx <> l.r_idx && Simnet.is_alive r.r_proc then
              Simnet.send t.net ~src:l.r_proc ~dst:r.r_proc ~size:hdr
                (SHb { from = l.r_idx }))
          t.replicas
    | None -> ()
  in
  let on_suspect ~stale =
    let candidates =
      Array.to_list t.replicas
      |> List.filter (fun r -> Simnet.is_alive r.r_proc && stale r.r_idx)
    in
    match candidates with
    | r :: _ ->
        r.r_is_leader <- true;
        r.r_rnd <- r.r_rnd + n t + 1;
        (* The new leader re-orders every stable batch it has not yet
           seen decided; duplicates are suppressed at delivery. *)
        r.r_next_inst <- Stdlib.max r.r_next_inst r.r_next_del;
        Hashtbl.iter
          (fun bid info ->
            if info.b_value <> None && not (Hashtbl.mem r.r_delivered_bids bid) then
              Queue.push bid r.r_unordered)
          r.r_batches;
        order_drain t r
    | [] -> ()
  in
  t.fd <-
    Some
      (Protocol.Failure_detector.create t.net ~hb_period:t.cfg.hb_period
         ~hb_timeout:t.cfg.hb_timeout
         ~leader:(fun () -> leader t <> None)
         ~emit ~on_suspect)

(* --- handlers ----------------------------------------------------------------- *)

let handler t r (msg : Simnet.msg) =
  match msg.payload with
  | Request item ->
      ignore (Protocol.Batcher.enqueue r.r_batch ~key:() item);
      batch_tick t r
  | Forward { bid; value } ->
      Simnet.charge_cpu t.net r.r_proc cpu_per_batch;
      let info = info_of r bid in
      info.b_value <- Some value;
      (* Holding the batch implies the originator and this replica ack it. *)
      Hashtbl.replace info.b_ackers (fst bid) ();
      Hashtbl.replace info.b_ackers r.r_idx ();
      if r.r_is_leader then begin
        Queue.push bid r.r_unordered;
        order_drain t r
      end;
      Array.iter
        (fun q ->
          if q.r_idx <> r.r_idx then
            Simnet.send t.net ~src:r.r_proc ~dst:q.r_proc ~size:hdr
              (BatchAck { bid; from = r.r_idx }))
        t.replicas;
      try_deliver t r
  | BatchAck { bid; from } ->
      let info = info_of r bid in
      Hashtbl.replace info.b_ackers from ();
      try_deliver t r
  | Order2a { inst; rnd; bid } ->
      if rnd >= r.r_rnd then begin
        r.r_rnd <- rnd;
        Hashtbl.replace r.r_decisions inst bid;
        (match leader t with
        | Some l ->
            Simnet.send t.net ~src:r.r_proc ~dst:l.r_proc ~size:hdr
              (Order2b { inst; rnd; from = r.r_idx })
        | None -> ());
        try_deliver t r
      end
  | Order2b { inst; rnd; from = _ } -> if r.r_is_leader && rnd = r.r_rnd then on_order2b t r inst
  | OrderDec { inst; bid } ->
      Hashtbl.replace r.r_decisions inst bid;
      try_deliver t r
  | SHb { from } ->
      (match t.fd with
      | Some fd -> Protocol.Failure_detector.heartbeat fd r.r_idx
      | None -> ());
      if from <> r.r_idx && r.r_is_leader && from < r.r_idx then r.r_is_leader <- false
  | _ -> ()

let create net cfg ~deliver =
  let count = (2 * cfg.f) + 1 in
  let replicas =
    Array.init count (fun i ->
        let node = Simnet.add_node net (Printf.sprintf "spx-%d" i) in
        let proc = Simnet.add_proc net node (Printf.sprintf "spx-%d" i) in
        let cnode = Simnet.add_node net (Printf.sprintf "spx-cl%d" i) in
        let client = Simnet.add_proc net cnode (Printf.sprintf "spx-cl%d" i) in
        { r_proc = proc;
          r_client = client;
          r_idx = i;
          r_batch = Protocol.Batcher.create ~batch_bytes:cfg.batch_bytes ();
          r_inflight = 0;
          r_next_seq = 0;
          r_batches = Hashtbl.create 4096;
          r_is_leader = i = 0;
          r_rnd = 0;
          r_next_inst = 0;
          r_outstanding = 0;
          r_unordered = Queue.create ();
          r_proposals = Hashtbl.create 256;
          r_votes = Hashtbl.create 256;
          r_next_del = 0;
          r_decisions = Hashtbl.create 4096;
          r_delivered_bids = Hashtbl.create 4096 })
  in
  let t =
    { net;
      cfg;
      rng = Sim.Rng.create 77;
      replicas;
      deliver;
      fd = None;
      next_uid = 0;
      delivered = 0 }
  in
  Array.iter
    (fun r ->
      Simnet.set_handler r.r_proc (handler t r);
      if cfg.gc_pause > 0.0 then gc_loop t r)
    replicas;
  failure_detection t;
  t

let submit t ~replica ~size app =
  let r = t.replicas.(replica) in
  if r.r_inflight + size > 4 * 1024 * 1024 then false
  else begin
    t.next_uid <- t.next_uid + 1;
    let item = { Paxos.Value.uid = t.next_uid; isize = size; app; born = Simnet.now t.net } in
    (* Requests reach the replica over TCP from a client stub, so the
       replica pays the receive cost the paper attributes to S-Paxos's
       request-dissemination layer. *)
    r.r_inflight <- r.r_inflight + size;
    Simnet.send t.net ~src:r.r_client ~dst:r.r_proc ~size:(size + hdr) (Request item);
    true
  end

let replica_proc t i = t.replicas.(i).r_proc
let n_replicas t = Array.length t.replicas

let kill_leader t =
  match leader t with Some l -> Simnet.kill t.net l.r_proc | None -> ()

let kill_replica t i = Simnet.kill t.net t.replicas.(i).r_proc

let delivered t = t.delivered
