module Ycsb = Ycsb
module Slo = Slo
module OL = Smr.Workload.Open_loop

type config = {
  n_replicas : int;
  n_workers : int;
  executor : Psmr.Executor.mode;
  ring : Ringpaxos.Mring.config;
  lambda : float;
  delta : float;
  merge_m : int;
  leases : bool;
  lease_dur : float;
  lease_backoff : float;
  read_timeout : float;
  initial_keys : int;
  key_range : int;
  record_history : bool;
}

let default_config =
  { n_replicas = 3;
    n_workers = 2;
    executor = Psmr.Executor.Pessimistic;
    ring = Ringpaxos.Mring.default_config;
    lambda = 50_000.0;
    delta = 1.0e-3;
    merge_m = 8;
    leases = true;
    lease_dur = 0.5;
    lease_backoff = 0.05;
    read_timeout = 0.25;
    initial_keys = 10_000;
    key_range = 100_000;
    record_history = false }

(* Slack past the last overlapping lease's expiry before a write's
   deadline response. *)
let lease_margin = 1.0e-3

type Simnet.payload +=
  | KOp of { op : Simnet.payload; reads : Btree.Keyset.t; writes : Btree.Keyset.t }
  | KGrant of { replica : int; keys : Btree.Keyset.t; until : float }
  | KResp of { uid : int; obs : int option }
  | KWAck of { uid : int; replica : int }
  | KReadReq of { rid : int; client : int; key : int }
  | KReadResp of { rid : int; ok : bool; obs : int option }

(* One replica's view of every replica's lease.  The table is log-driven
   (grants and invalidations are ordered log entries applied identically
   everywhere), so replicas agree on its state at every log position; only
   the wall-clock validity check [now < ls_until] is local — sound because
   the simulation's virtual clock is globally synchronised (a perfect
   clock-sync assumption, documented in DESIGN.md). *)
type lease = {
  mutable ls_keys : Btree.Keyset.t;
  mutable ls_until : float;  (* 0 = invalidated or never granted *)
  mutable ls_epoch : int;  (* bumped by every conflicting-write invalidation *)
}

type replica = {
  r_idx : int;
  r_svc : Smr.Btree_service.t;
  mutable r_exec : Psmr.Executor.t option;  (* set once the ring exists *)
  r_leases : lease array;
}

let exec_of rep = match rep.r_exec with Some e -> e | None -> assert false

type hist_intent = HRead of int | HWrite of int * int option

type infl = {
  i_born : float;
  i_cls : string;
  i_hist : hist_intent option;
}

(* A deferred response waits on another replica's lease, so it is always
   answered with [~remember:true]. *)
type wpend = {
  mutable w_need : int list;  (* replicas whose WAck is still missing *)
  w_client : int;
  w_replica : int;  (* the responder *)
  w_obs : int option;
  w_size : int;
  w_commit : float;
}

type pread = {
  p_client : int;
  p_key : int;
  p_born : float;
  p_arr : OL.arrival;
  p_replica : int;
  p_timer : Sim.Engine.handle;
}

type t = {
  net : Simnet.t;
  cfg : config;
  n_clients : int;
  mutable mr : Multiring.t option;
  reps : replica array;
  ctrs : Protocol.Counters.t;
  slo : Slo.t;
  inflight : (int, infl) Hashtbl.t;  (* ordered-path uid -> issue record *)
  wpend : (int, wpend) Hashtbl.t;  (* deferred write responses (responder) *)
  early_acks : (int, int list ref) Hashtbl.t;  (* WAcks before commit *)
  done_uids : (int, unit) Hashtbl.t;
      (* responded writes some other replica may still ack: straggler
         acks die here (see [respond_now]) *)
  applied : (int, unit) Hashtbl.t;  (* writes applied somewhere (history) *)
  pending_reads : (int, pread) Hashtbl.t;  (* rid -> local read in flight *)
  conts : (int, int option -> unit) Hashtbl.t;  (* uid -> point-op continuation *)
  backoff : float array;  (* per-replica: no local reads until this time *)
  init_vals : (int, int) Hashtbl.t;  (* pre-run tree contents (history) *)
  mutable hist : Smr.Linearizability.Kv.op list;
  mutable next_rid : int;
  mutable rr : int;  (* ordered-path client round-robin *)
  mutable read_rr : int;  (* local-read replica round-robin *)
  mutable issued : int;
  mutable drops : int;
  mutable broken_leases : bool;  (* Testing: serve despite expiry/revocation *)
  on_broadcast : (uid:int -> unit) option;
  on_deliver : (replica:int -> uid:int -> unit) option;
}

let the_mr t = match t.mr with Some m -> m | None -> assert false

let responder_replica t uid =
  Paxos.Value.uid_seq uid mod t.cfg.n_replicas

let learner_proc t r = Multiring.learner_proc (the_mr t) r

let client_proc t c = Multiring.proposer_proc (the_mr t) ~group:0 ~proposer:c

let trace t f =
  match Simnet.tracer t.net with Some tr -> f tr | None -> ()

(* --- history recording -------------------------------------------------------- *)

let record_read t ~key ~obs ~inv ~res =
  if t.cfg.record_history then
    t.hist <-
      { Smr.Linearizability.Kv.key; kind = `Read obs; inv; res } :: t.hist

let record_write t ~key ~value ~inv ~res =
  if t.cfg.record_history then
    t.hist <-
      { Smr.Linearizability.Kv.key; kind = `Write value; inv; res } :: t.hist

let complete t inf ~obs ~res =
  Slo.add t.slo ~cls:inf.i_cls (res -. inf.i_born);
  match inf.i_hist with
  | Some (HRead key) -> record_read t ~key ~obs ~inv:inf.i_born ~res
  | Some (HWrite (key, value)) -> record_write t ~key ~value ~inv:inf.i_born ~res
  | None -> ()

(* --- responses ------------------------------------------------------------------ *)

(* [remember] says whether a replica other than the responder held a lease
   entry over the write at its log position.  Only such a replica can ever
   send a [KWAck] for it, so only then must the answer be remembered for
   its straggler acks. *)
let respond_now t ~replica ~uid ~client ~obs ~size ~at ~remember =
  if remember then Hashtbl.replace t.done_uids uid ();
  Hashtbl.remove t.early_acks uid;
  ignore
    (Sim.Engine.at (Simnet.engine t.net) ~time:at (fun () ->
         Simnet.send t.net ~src:(learner_proc t replica)
           ~dst:(client_proc t client) ~size (KResp { uid; obs })))

(* --- ordered delivery ----------------------------------------------------------- *)

(* Reply bytes, one rule for the ordered and the lease-served path: a point
   read or a write answers with one value, only a scan with a page.  (The
   service's own [resp_size] is the fig6 range-query page.) *)
let point_resp = 256
let scan_resp = 8192

let resp_size_of op =
  match op with
  | Smr.Btree_service.Query { lo; hi } when hi > lo -> scan_resp
  | _ -> point_resp

let apply_grant t rep ~replica ~keys ~until =
  let e = rep.r_leases.(replica) in
  e.ls_keys <- keys;
  e.ls_until <- until;
  if rep.r_idx = 0 then Protocol.Counters.incr t.ctrs "kv_lease_grants_applied";
  if rep.r_idx = replica then
    trace t (fun tr ->
        Trace.instant tr
          ~pid:(Simnet.pid (learner_proc t rep.r_idx))
          ~cat:"lease" ~name:"grant" ~ts:(Simnet.now t.net))

let apply_op t rep (it : Paxos.Value.item) ~op ~reads ~writes =
  let uid = it.Paxos.Value.uid in
  let now = Simnet.now t.net in
  (* Only a state-changing command touches leases: non-responders skip
     read-only commands, so counting a read's declared writes here would
     let the replicas' lease tables drift apart. *)
  let wrote =
    (not (Btree.Keyset.is_empty writes)) && not (Smr.Btree_service.read_only op)
  in
  let responder = responder_replica t uid in
  let mine = responder = rep.r_idx in
  (* Replicas whose lease covers this write at its apply point — computed
     before invalidation.  Only lease entries valid right now defer the
     writer's response; an expired entry cannot serve reads anyway. *)
  let holders = ref [] in
  let remember = ref false in
  if t.cfg.leases && wrote then begin
    let leases = rep.r_leases in
    for j = 0 to Array.length leases - 1 do
      let e = leases.(j) in
      if e.ls_until > now && Btree.Keyset.overlaps writes e.ls_keys then
        holders := (j, e.ls_until) :: !holders
    done;
    (* Conflicting writes invalidate overlapping leases when applied: the
       epoch bumps and local serving stops until a fresh grant is
       ordered. *)
    for j = 0 to Array.length leases - 1 do
      let e = leases.(j) in
      if e.ls_until > 0.0 && Btree.Keyset.overlaps writes e.ls_keys then begin
        if j <> responder then remember := true;
        e.ls_until <- 0.0;
        e.ls_epoch <- e.ls_epoch + 1;
        if rep.r_idx = 0 then
          Protocol.Counters.incr t.ctrs "kv_lease_invalidations";
        if j = rep.r_idx then
          trace t (fun tr ->
              Trace.instant tr
                ~pid:(Simnet.pid (learner_proc t rep.r_idx))
                ~cat:"lease" ~name:"revoke" ~ts:now)
      end
    done
  end;
  (* The observed value for single-key reads, at this log position (all
     earlier ops already applied to the tree, later ones not yet). *)
  let obs =
    if t.cfg.record_history || mine then
      match op with
      | Smr.Btree_service.Query { lo; hi } when lo = hi ->
          Btree.find rep.r_svc.Smr.Btree_service.tree lo
      | _ -> None
    else None
  in
  let ex = exec_of rep in
  Psmr.Executor.submit ex ~now ~uid ~reads ~writes op;
  if t.cfg.record_history && wrote && not (Hashtbl.mem t.applied uid) then
    Hashtbl.replace t.applied uid ();
  (* A non-responder holding a conflicting lease acks the write once it has
     applied it (after which its local reads see the new value); the
     responder holds the client response until every such ack arrives or
     the lease's deadline passes. *)
  if (not mine) && t.cfg.leases && wrote
     && List.mem_assoc rep.r_idx !holders
  then
    ignore
      (Sim.Engine.at (Simnet.engine t.net) ~time:(Psmr.Executor.last_commit ex)
         (fun () ->
           Simnet.send t.net ~src:(learner_proc t rep.r_idx)
             ~dst:(learner_proc t responder) ~size:64
             (KWAck { uid; replica = rep.r_idx })));
  if mine then begin
    let client = Paxos.Value.uid_origin uid - 1 in
    if client >= 0 && client < t.n_clients then begin
      let size = resp_size_of op in
      let commit = Psmr.Executor.last_commit ex in
      (* Without holders nothing defers the response, and [respond_now]
         drops any banked acks itself. *)
      let need =
        match !holders with
        | [] -> []
        | holders ->
            let acked =
              match Hashtbl.find_opt t.early_acks uid with
              | Some l ->
                  Hashtbl.remove t.early_acks uid;
                  !l
              | None -> []
            in
            List.filter (fun (j, _) -> j <> rep.r_idx && not (List.mem j acked)) holders
      in
      if need = [] then
        respond_now t ~replica:rep.r_idx ~uid ~client ~obs ~size ~at:commit
          ~remember:!remember
      else begin
        let deadline =
          List.fold_left (fun m (_, u) -> Stdlib.max m u) 0.0 need
          +. lease_margin
        in
        let deadline = Stdlib.max deadline commit in
        Hashtbl.replace t.wpend uid
          { w_need = List.map fst need;
            w_client = client;
            w_replica = rep.r_idx;
            w_obs = obs;
            w_size = size;
            w_commit = commit };
        trace t (fun tr ->
            Trace.abegin tr
              ~pid:(Simnet.pid (learner_proc t rep.r_idx))
              ~cat:"lease" ~name:"write-defer" ~id:uid ~ts:now);
        (* A holder that never acks (dead, partitioned) stops blocking once
           its lease has provably expired. *)
        ignore
          (Sim.Engine.at (Simnet.engine t.net) ~time:deadline (fun () ->
               if Hashtbl.mem t.wpend uid then begin
                 let w = Hashtbl.find t.wpend uid in
                 Hashtbl.remove t.wpend uid;
                 Protocol.Counters.incr t.ctrs "kv_deadline_responses";
                 trace t (fun tr ->
                     Trace.aend tr
                       ~pid:(Simnet.pid (learner_proc t w.w_replica))
                       ~cat:"lease" ~name:"write-defer" ~id:uid
                       ~ts:(Simnet.now t.net));
                 respond_now t ~replica:w.w_replica ~uid ~client:w.w_client
                   ~obs:w.w_obs ~size:w.w_size ~at:(Simnet.now t.net) ~remember:true
               end))
      end
    end
  end

let deliver t ~learner ~group:_ (it : Paxos.Value.item) app =
  let rep = t.reps.(learner) in
  (match t.on_deliver with
  | Some f -> f ~replica:learner ~uid:it.Paxos.Value.uid
  | None -> ());
  match app with
  | KGrant { replica; keys; until } -> apply_grant t rep ~replica ~keys ~until
  | KOp { op; reads; writes } ->
      (* A read-only command changes no state and only its responder
         replies, so it runs once: at its log position, on the responder.
         Read-only is the command's own property, never its declared
         key-sets — an update declared with no writes still runs
         everywhere, or the replicas would diverge. *)
      if learner = responder_replica t it.Paxos.Value.uid
         || not (Smr.Btree_service.read_only op)
      then apply_op t rep it ~op ~reads ~writes
  | _ -> ()

(* --- client side ----------------------------------------------------------------- *)

let slo_class t (a : OL.arrival) =
  match a.OL.op with
  | Smr.Btree_service.Query { lo; hi } -> if lo = hi then "read" else "scan"
  | Smr.Btree_service.Insert { key; _ } ->
      if key <= t.cfg.key_range then "update" else "insert"
  | Smr.Btree_service.Delete _ -> "update"
  | _ -> "other"

let intent_of (a : OL.arrival) =
  match a.OL.op with
  | Smr.Btree_service.Query { lo; hi } when lo = hi -> Some (HRead lo)
  | Smr.Btree_service.Insert { key; value } -> Some (HWrite (key, Some value))
  | Smr.Btree_service.Delete { key } -> Some (HWrite (key, None))
  | _ -> None

let ordered_issue t ~born (a : OL.arrival) =
  let c = t.rr mod t.n_clients in
  t.rr <- t.rr + 1;
  let uid =
    Multiring.multicast (the_mr t) ~group:0 ~proposer:c ~size:a.OL.size
      (KOp { op = a.OL.op; reads = a.OL.reads; writes = a.OL.writes })
  in
  if uid < 0 then begin
    t.drops <- t.drops + 1;
    Protocol.Counters.incr t.ctrs "kv_drops"
  end
  else begin
    t.issued <- t.issued + 1;
    (match t.on_broadcast with Some f -> f ~uid | None -> ());
    let i_hist = if t.cfg.record_history then intent_of a else None in
    Hashtbl.replace t.inflight uid { i_born = born; i_cls = slo_class t a; i_hist }
  end;
  uid

(* Next replica not in nack/timeout backoff, round-robin; -1 if none. *)
let pick_replica t =
  let n = t.cfg.n_replicas in
  let now = Simnet.now t.net in
  let rec go k =
    if k >= n then -1
    else begin
      let j = (t.read_rr + k) mod n in
      if now >= t.backoff.(j) then j else go (k + 1)
    end
  in
  let j = go 0 in
  if j >= 0 then t.read_rr <- j + 1;
  j

let local_read t (a : OL.arrival) ~key ~replica =
  let rid = t.next_rid in
  t.next_rid <- t.next_rid + 1;
  let c = t.rr mod t.n_clients in
  t.rr <- t.rr + 1;
  let born = Simnet.now t.net in
  (* A dead or partitioned replica never answers: time out and fall back
     to the ordered path (latency keeps the failed attempt). *)
  let timer =
    Simnet.after t.net t.cfg.read_timeout (fun () ->
        match Hashtbl.find_opt t.pending_reads rid with
        | None -> ()
        | Some p ->
            Hashtbl.remove t.pending_reads rid;
            Protocol.Counters.incr t.ctrs "kv_read_timeouts";
            t.backoff.(p.p_replica) <-
              Simnet.now t.net +. t.cfg.lease_backoff;
            ignore (ordered_issue t ~born:p.p_born p.p_arr))
  in
  Hashtbl.replace t.pending_reads rid
    { p_client = c; p_key = key; p_born = born; p_arr = a; p_replica = replica;
      p_timer = timer };
  Simnet.send t.net ~src:(client_proc t c) ~dst:(learner_proc t replica)
    ~size:64
    (KReadReq { rid; client = c; key })

let issue t (a : OL.arrival) =
  match a.OL.op with
  | Smr.Btree_service.Query { lo = key; hi } when key = hi && t.cfg.leases ->
      let j = pick_replica t in
      if j >= 0 then local_read t a ~key ~replica:j
      else ignore (ordered_issue t ~born:(Simnet.now t.net) a)
  | _ -> ignore (ordered_issue t ~born:(Simnet.now t.net) a)

(* --- replica-side handlers (local reads, write acks) --------------------------- *)

let serve_read t rep ~rid ~client ~key =
  let e = rep.r_leases.(rep.r_idx) in
  let now = Simnet.now t.net in
  let proc = learner_proc t rep.r_idx in
  let valid = t.broken_leases || now < e.ls_until in
  let keys = Btree.Keyset.range ~lo:key ~hi:key in
  let covered = Btree.Keyset.subset keys e.ls_keys in
  if t.cfg.leases && valid && covered then begin
    Protocol.Counters.incr t.ctrs "kv_local_reads";
    (* The service owns the CPU cost; the reply carries one value. *)
    let cost =
      (rep.r_svc.Smr.Btree_service.service.Smr.Service.execute
         (Smr.Btree_service.Query { lo = key; hi = key }))
        .Smr.Service.cost
    in
    (* The observed value only feeds the linearizability history.  It is
       the tree at [now], while the lease is valid: the read's
       linearization point, however long it then waits for a worker. *)
    let obs =
      if t.cfg.record_history then
        Btree.find rep.r_svc.Smr.Btree_service.tree key
      else None
    in
    (* The read runs on the replica's worker pool, beside the ordered
       commands, not on the learner's CPU. *)
    let ex = exec_of rep in
    Psmr.Executor.read ex ~now ~reads:keys ~cost;
    let fin = Psmr.Executor.last_read_fin ex in
    (match Simnet.tracer t.net with
    | Some tr ->
        let start = Psmr.Executor.last_read_start ex in
        let pid = Simnet.pid proc in
        if start > now then
          Trace.span tr ~pid ~cat:"lease" ~name:"local-read-wait" ~ts:now
            ~dur:(start -. now);
        Trace.span tr ~pid ~cat:"lease" ~name:"local-read" ~ts:start ~dur:cost
    | None -> ());
    ignore
      (Sim.Engine.at (Simnet.engine t.net) ~time:fin (fun () ->
           if Simnet.is_alive proc then
             Simnet.send t.net ~src:proc ~dst:(client_proc t client)
               ~size:point_resp
               (KReadResp { rid; ok = true; obs })))
  end
  else begin
    Protocol.Counters.incr t.ctrs "kv_local_nacks";
    Simnet.send t.net ~src:proc ~dst:(client_proc t client) ~size:64
      (KReadResp { rid; ok = false; obs = None })
  end

let handle_wack t ~uid ~replica =
  Protocol.Counters.incr t.ctrs "kv_wacks";
  if not (Hashtbl.mem t.done_uids uid) then begin
    match Hashtbl.find_opt t.wpend uid with
    | Some w ->
        w.w_need <- List.filter (fun j -> j <> replica) w.w_need;
        if w.w_need = [] then begin
          Hashtbl.remove t.wpend uid;
          trace t (fun tr ->
              Trace.aend tr
                ~pid:(Simnet.pid (learner_proc t w.w_replica))
                ~cat:"lease" ~name:"write-defer" ~id:uid
                ~ts:(Simnet.now t.net));
          respond_now t ~replica:w.w_replica ~uid ~client:w.w_client
            ~obs:w.w_obs ~size:w.w_size
            ~at:(Stdlib.max w.w_commit (Simnet.now t.net)) ~remember:true
        end
    | None ->
        (* Ack raced ahead of the responder's own apply: bank it. *)
        let l =
          match Hashtbl.find_opt t.early_acks uid with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.add t.early_acks uid l;
              l
        in
        l := replica :: !l
  end

(* --- client response handler ----------------------------------------------------- *)

let handle_client_msg t (m : Simnet.msg) prev =
  match m.Simnet.payload with
  | KResp { uid; obs } when Hashtbl.mem t.inflight uid ->
      let inf = Hashtbl.find t.inflight uid in
      Hashtbl.remove t.inflight uid;
      complete t inf ~obs ~res:(Simnet.now t.net);
      (* Only point ops leave a continuation: the open-loop path pays one
         length check. *)
      if Hashtbl.length t.conts > 0 then begin
        match Hashtbl.find_opt t.conts uid with
        | Some k ->
            Hashtbl.remove t.conts uid;
            k obs
        | None -> ()
      end
  | KReadResp { rid; ok; obs } -> begin
      match Hashtbl.find_opt t.pending_reads rid with
      | None -> ()  (* timed out; the ordered fallback owns it now *)
      | Some p ->
          Hashtbl.remove t.pending_reads rid;
          Simnet.cancel t.net p.p_timer;
          if ok then begin
            let now = Simnet.now t.net in
            Slo.add t.slo ~cls:"read-local" (now -. p.p_born);
            record_read t ~key:p.p_key ~obs ~inv:p.p_born ~res:now
          end
          else begin
            Protocol.Counters.incr t.ctrs "kv_local_nacks_seen";
            t.backoff.(p.p_replica) <-
              Simnet.now t.net +. t.cfg.lease_backoff;
            ignore (ordered_issue t ~born:p.p_born p.p_arr)
          end
    end
  | _ -> prev m

(* --- construction ---------------------------------------------------------------- *)

let create ?on_broadcast ?on_deliver net cfg ~n_clients =
  if n_clients <= 0 then invalid_arg "Kv.create: n_clients";
  let reps =
    Array.init cfg.n_replicas (fun r ->
        (* Same seed: every replica starts from the identical tree. *)
        let svc =
          Smr.Btree_service.create ~initial_keys:cfg.initial_keys
            ~key_range:cfg.key_range ~seed:1 ()
        in
        { r_idx = r;
          r_svc = svc;
          r_exec = None;
          r_leases =
            Array.init cfg.n_replicas (fun _ ->
                { ls_keys = Btree.Keyset.empty; ls_until = 0.0; ls_epoch = 0 }) })
  in
  let init_vals = Hashtbl.create 1024 in
  if cfg.record_history then
    List.iter
      (fun (k, v) -> Hashtbl.replace init_vals k v)
      (Btree.range reps.(0).r_svc.Smr.Btree_service.tree ~lo:min_int
         ~hi:max_int);
  let t =
    { net;
      cfg;
      n_clients;
      mr = None;
      reps;
      ctrs = Protocol.Counters.create ();
      slo = Slo.create ();
      inflight = Hashtbl.create 4096;
      wpend = Hashtbl.create 256;
      early_acks = Hashtbl.create 256;
      done_uids = Hashtbl.create 4096;
      applied = Hashtbl.create 4096;
      pending_reads = Hashtbl.create 1024;
      conts = Hashtbl.create 16;
      backoff = Array.make cfg.n_replicas 0.0;
      init_vals;
      hist = [];
      next_rid = 0;
      rr = 0;
      read_rr = 0;
      issued = 0;
      drops = 0;
      broken_leases = false;
      on_broadcast;
      on_deliver }
  in
  let mcfg =
    { Multiring.ring = cfg.ring;
      n_rings = 1;
      n_groups = 0;
      lambda = cfg.lambda;
      delta = cfg.delta;
      m = cfg.merge_m;
      buffer_items = 500_000 }
  in
  let mr =
    Multiring.create net mcfg ~n_learners:cfg.n_replicas
      ~subs:(fun _ -> [ 0 ])
      ~proposers_per_ring:(n_clients + cfg.n_replicas)
      ~deliver:(deliver t)
  in
  t.mr <- Some mr;
  Array.iter
    (fun rep ->
      rep.r_exec <-
        Some
          (Psmr.Executor.create
             ?tracer:(Simnet.tracer net)
             ~pid:(Simnet.pid (Multiring.learner_proc mr rep.r_idx))
             ~mode:cfg.executor ~n_workers:cfg.n_workers
             rep.r_svc.Smr.Btree_service.service))
    t.reps;
  (* Replica-side handlers: local read requests and write acks arrive on
     the learner process, chained in front of the ring's own handler. *)
  Array.iter
    (fun rep ->
      let p = Multiring.learner_proc mr rep.r_idx in
      let prev = Simnet.handler_of p in
      Simnet.set_handler p (fun m ->
          match m.Simnet.payload with
          | KReadReq { rid; client; key } -> serve_read t rep ~rid ~client ~key
          | KWAck { uid; replica } -> handle_wack t ~uid ~replica
          | _ -> prev m))
    t.reps;
  (* Client handlers on the ring-0 proposer processes. *)
  for c = 0 to n_clients - 1 do
    let p = Multiring.proposer_proc mr ~group:0 ~proposer:c in
    let prev = Simnet.handler_of p in
    Simnet.set_handler p (fun m -> handle_client_msg t m prev)
  done;
  t

(* --- lease grants ----------------------------------------------------------------- *)

(* Replica [r] proposes its own lease renewals through the ordered log as
   ring proposer [n_clients + r]; the grant carries an absolute expiry
   stamped at submit time, so it is identical at every replica whenever it
   is applied (leases strictly shrink while in flight — conservative). *)
let start_leases t ~until =
  if t.cfg.leases then
    Array.iter
      (fun rep ->
        let r = rep.r_idx in
        let rec loop () =
          let now = Simnet.now t.net in
          if now <= until then begin
            let uid =
              Multiring.multicast (the_mr t) ~group:0
                ~proposer:(t.n_clients + r) ~size:64
                (KGrant
                   { replica = r;
                     keys = Btree.Keyset.full;
                     until = now +. t.cfg.lease_dur })
            in
            if uid >= 0 then begin
              Protocol.Counters.incr t.ctrs "kv_lease_grants";
              match t.on_broadcast with Some f -> f ~uid | None -> ()
            end;
            ignore (Simnet.after t.net (t.cfg.lease_dur /. 2.0) loop)
          end
        in
        ignore (Simnet.after t.net (1.0e-4 *. float_of_int (r + 1)) loop))
      t.reps

let start_open t wl ~until =
  start_leases t ~until;
  let engine = Simnet.engine t.net in
  (* One arrival is armed at a time, so one closure serves them all. *)
  let armed = ref (OL.peek wl) in
  let rec fire () =
    issue t !armed;
    arm ()
  and arm () =
    (* Peek, don't consume: the lookahead past the horizon stays in the
       generator (see Workload.Open_loop.peek). *)
    let a = OL.peek wl in
    if a.OL.at <= until then begin
      ignore (OL.next wl);
      armed := a;
      ignore (Sim.Engine.at engine ~time:a.OL.at fire)
    end
  in
  arm ()

(* --- point-op client ------------------------------------------------------------ *)

(* A point op is an ordered log command like any other (no lease path);
   its continuation gets the responder's observed value. *)
let point t op ~key ~writes ~k =
  let now = Simnet.now t.net in
  let uid =
    ordered_issue t ~born:now
      { OL.at = now; op; reads = Btree.Keyset.singleton key; writes; size = 256 }
  in
  if uid >= 0 then Hashtbl.replace t.conts uid k

let put t ~key ~value ~k =
  point t (Smr.Btree_service.Insert { key; value }) ~key
    ~writes:(Btree.Keyset.singleton key) ~k

let get t ~key ~k =
  point t (Smr.Btree_service.Query { lo = key; hi = key }) ~key
    ~writes:Btree.Keyset.empty ~k

let kill_coordinator t = Multiring.kill_ring_coordinator (the_mr t) 0

(* --- accessors -------------------------------------------------------------------- *)

let slo t = t.slo
let counters t = Protocol.Counters.snapshot t.ctrs
let counter t name = Protocol.Counters.get t.ctrs name
let issued t = t.issued
let drops t = t.drops
let inflight_count t = Hashtbl.length t.inflight
let pending_writes t = Hashtbl.length t.wpend

let executed t =
  Array.fold_left (fun acc rep -> acc + Psmr.Executor.executed (exec_of rep)) 0 t.reps

let rollbacks t =
  Array.fold_left (fun acc rep -> acc + Psmr.Executor.rollbacks (exec_of rep)) 0 t.reps

let state_fingerprint_at t r = Smr.Btree_service.fingerprint t.reps.(r).r_svc

let lease_epoch t ~replica = t.reps.(replica).r_leases.(replica).ls_epoch

let replica_proc t r = learner_proc t r
let client_proc t c = client_proc t c

let history t =
  (* Writes issued but never acknowledged may still have executed; those
     that provably applied somewhere are kept with an open response time
     (the checker may linearize them anywhere after invocation). *)
  let tail =
    Hashtbl.fold
      (fun uid inf acc ->
        match inf.i_hist with
        | Some (HWrite (key, value)) when Hashtbl.mem t.applied uid ->
            { Smr.Linearizability.Kv.key; kind = `Write value;
              inv = inf.i_born; res = infinity }
            :: acc
        | _ -> acc)
      t.inflight []
  in
  tail @ t.hist

let check_history t =
  Smr.Linearizability.Kv.check
    ~init:(fun k -> Hashtbl.find_opt t.init_vals k)
    (history t)

module Testing = struct
  let break_leases t = t.broken_leases <- true
  let issue = issue
  let done_uids t = Hashtbl.length t.done_uids
end
