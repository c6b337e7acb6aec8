type config = {
  mring : Ringpaxos.Mring.config;
  replicas_per_partition : int;
  speculative : bool;
}

let default_config =
  { mring = Ringpaxos.Mring.default_config; replicas_per_partition = 2; speculative = false }

type Simnet.payload += Resp of { uid : int; part : int }

type spec_entry = {
  sp_vid : int;
  sp_seq : int;
  sp_fin : float;
  sp_resps : (int * int * int) list;  (* client, bytes, uid *)
  sp_undos : (unit -> unit) list;
  sp_cost : float;
}

type replica = {
  rp_lrn : int;
  rp_part : int;
  rp_slot : int;
  rp_service : Service.t;
  mutable rp_exec_free : float;
  rp_exec_busy : Sim.Stats.Busy.t;
  rp_spec : (int, spec_entry) Hashtbl.t;
  mutable rp_spec_seq : int;
  mutable rp_conf_seq : int;
  mutable rp_executed : int;
  mutable rp_rollbacks : int;
}

type client = {
  cl_idx : int;
  mutable cl_uid : int;
  mutable cl_waiting : int;
  mutable cl_born : float;
  mutable cl_bytes : int;
}

type t = {
  net : Simnet.t;
  cfg : config;
  mutable mr : Ringpaxos.Mring.t option;
  replicas : replica array;
  clients : client array;
  gen : int -> Workload.command;
  metrics : Metrics.t;
}

let the_mr t = match t.mr with Some m -> m | None -> assert false

let trace t f = match Simnet.tracer t.net with Some tr -> f tr | None -> ()

(* --- execution -------------------------------------------------------------- *)

(* Execute the items of a value this replica is responsible for; returns the
   responses owed, the undo closures (newest first) and the virtual cost.
   Only a speculative execution can be rolled back, so only it asks the
   service for each command's undo. *)
let run_items t r ~speculative (v : Paxos.Value.t) =
  let resps = ref [] and undos = ref [] and cost = ref 0.0 in
  List.iter
    (fun (it : Paxos.Value.item) ->
      let responder =
        Paxos.Value.uid_seq it.uid mod t.cfg.replicas_per_partition = r.rp_slot
      in
      let read_only = Btree_service.read_only it.app in
      if (not read_only) || responder then begin
        let o = r.rp_service.execute it.app in
        r.rp_executed <- r.rp_executed + 1;
        cost := !cost +. o.cost;
        if speculative then begin
          match r.rp_service.last_undo () with
          | Some u -> undos := u :: !undos
          | None -> ()
        end;
        if responder then
          resps := (Paxos.Value.uid_origin it.uid, o.resp_size, it.uid) :: !resps
      end)
    v.items;
  (List.rev !resps, !undos, !cost)

(* Book [cost] on the replica's executor thread; returns completion time. *)
let book t r cost =
  let now = Simnet.now t.net in
  let start = if now > r.rp_exec_free then now else r.rp_exec_free in
  let fin = start +. cost in
  r.rp_exec_free <- fin;
  Sim.Stats.Busy.add_at r.rp_exec_busy ~now:start cost;
  trace t (fun tr ->
      if cost > 0.0 then
        Trace.span tr ~pid:(Simnet.pid (Ringpaxos.Mring.learner_proc (the_mr t) r.rp_lrn))
          ~cat:"exec" ~name:"execute" ~ts:start ~dur:cost);
  fin

let send_resps t r ~at resps =
  ignore
    (Sim.Engine.at (Simnet.engine t.net) ~time:at (fun () ->
         List.iter
           (fun (client, bytes, uid) ->
             if client < Array.length t.clients then
               Simnet.send t.net
                 ~src:(Ringpaxos.Mring.learner_proc (the_mr t) r.rp_lrn)
                 ~dst:(Ringpaxos.Mring.proposer_proc (the_mr t) client)
                 ~size:bytes
                 (Resp { uid; part = r.rp_part }))
           resps))

let exec_now t r v =
  let resps, _undos, cost = run_items t r ~speculative:false v in
  let fin = book t r cost in
  send_resps t r ~at:fin resps

(* Undo every unconfirmed speculative execution, newest arrival first, and
   charge the executor for the wasted and undo work (§4.2.1). *)
let rollback_all t r =
  let entries =
    Hashtbl.fold (fun inst e acc -> (inst, e) :: acc) r.rp_spec []
    |> List.sort (fun (_, a) (_, b) -> compare b.sp_seq a.sp_seq)
  in
  let cost = ref 0.0 in
  List.iter
    (fun (inst, e) ->
      List.iter (fun u -> u ()) e.sp_undos;
      cost := !cost +. e.sp_cost +. r.rp_service.rollback_cost;
      r.rp_rollbacks <- r.rp_rollbacks + 1;
      Hashtbl.remove r.rp_spec inst)
    entries;
  ignore (book t r !cost);
  r.rp_conf_seq <- r.rp_spec_seq

let on_speculative t r inst (v : Paxos.Value.t) =
  let resps, undos, cost = run_items t r ~speculative:true v in
  let fin = book t r cost in
  let seq = r.rp_spec_seq in
  r.rp_spec_seq <- seq + 1;
  Hashtbl.replace r.rp_spec inst
    { sp_vid = v.vid; sp_seq = seq; sp_fin = fin; sp_resps = resps; sp_undos = undos;
      sp_cost = cost }

let on_deliver t r inst v =
  match v with
  | None -> ()
  | Some (v : Paxos.Value.t) -> (
      match Hashtbl.find_opt r.rp_spec inst with
      | Some e when e.sp_vid = v.vid && e.sp_seq = r.rp_conf_seq ->
          (* Speculation confirmed: answer as soon as both the execution and
             the ordering have finished — the min(Δo, Δe) saving. *)
          Hashtbl.remove r.rp_spec inst;
          r.rp_conf_seq <- r.rp_conf_seq + 1;
          let at = Stdlib.max (Simnet.now t.net) e.sp_fin in
          send_resps t r ~at e.sp_resps
      | Some _ ->
          rollback_all t r;
          exec_now t r v
      | None ->
          if Hashtbl.length r.rp_spec > 0 then rollback_all t r;
          exec_now t r v)

(* --- clients ------------------------------------------------------------------ *)

let rec submit_next t c =
  let cmd = t.gen c.cl_idx in
  let uid =
    Ringpaxos.Mring.submit (the_mr t) ~proposer:c.cl_idx ~parts:cmd.parts ~size:cmd.size cmd.op
  in
  if uid < 0 then
    (* Client buffer full (cannot happen in a closed loop, but be safe). *)
    ignore (Simnet.after t.net 1.0e-3 (fun () -> submit_next t c))
  else begin
    c.cl_uid <- uid;
    c.cl_waiting <- List.length cmd.parts;
    c.cl_born <- Simnet.now t.net;
    c.cl_bytes <- 0
  end

let client_on_resp t c (m : Simnet.msg) uid =
  if uid = c.cl_uid && c.cl_waiting > 0 then begin
    c.cl_waiting <- c.cl_waiting - 1;
    c.cl_bytes <- c.cl_bytes + m.size;
    if c.cl_waiting = 0 then begin
      trace t (fun tr ->
          Trace.instant tr ~id:uid
            ~pid:(Simnet.pid (Ringpaxos.Mring.proposer_proc (the_mr t) c.cl_idx))
            ~cat:"proto" ~name:"response" ~ts:(Simnet.now t.net));
      Metrics.command t.metrics ~born:c.cl_born ~bytes:c.cl_bytes;
      submit_next t c
    end
  end

(* --- construction ---------------------------------------------------------------- *)

let create net cfg ~services ~n_clients ~gen =
  let n_parts = Stdlib.max 1 cfg.mring.partitions in
  let n_replicas = n_parts * cfg.replicas_per_partition in
  let metrics = Metrics.create (Simnet.engine net) in
  let replicas =
    Array.init n_replicas (fun l ->
        { rp_lrn = l;
          rp_part = l / cfg.replicas_per_partition;
          rp_slot = l mod cfg.replicas_per_partition;
          rp_service = services l;
          rp_exec_free = 0.0;
          rp_exec_busy = Sim.Stats.Busy.create ();
          rp_spec = Hashtbl.create 256;
          rp_spec_seq = 0;
          rp_conf_seq = 0;
          rp_executed = 0;
          rp_rollbacks = 0 })
  in
  let clients =
    Array.init n_clients (fun i ->
        { cl_idx = i; cl_uid = -1; cl_waiting = 0; cl_born = 0.0; cl_bytes = 0 })
  in
  let t = { net; cfg; mr = None; replicas; clients; gen; metrics } in
  let deliver ~learner ~inst v = on_deliver t replicas.(learner) inst v in
  let speculative =
    if cfg.speculative then
      Some (fun ~learner ~inst v -> on_speculative t replicas.(learner) inst v)
    else None
  in
  let mr =
    Ringpaxos.Mring.create ?speculative net cfg.mring ~n_proposers:n_clients
      ~n_learners:n_replicas
      ~learner_parts:(fun l -> [ l / cfg.replicas_per_partition ])
      ~deliver
  in
  t.mr <- Some mr;
  (* Attach client response handling on top of the proposer protocol. *)
  Array.iter
    (fun c ->
      let p = Ringpaxos.Mring.proposer_proc mr c.cl_idx in
      let prev = Simnet.handler_of p in
      Simnet.set_handler p (fun m ->
          match m.payload with
          | Resp { uid; part = _ } -> client_on_resp t c m uid
          | _ -> prev m))
    t.clients;
  t

let start t =
  Array.iter
    (fun c ->
      let stagger = 1.0e-5 *. float_of_int c.cl_idx in
      ignore (Simnet.after t.net (0.001 +. stagger) (fun () -> submit_next t c)))
    t.clients

let metrics t = t.metrics
let mring t = the_mr t

let exec_utilization t ~learner ~from ~till =
  Sim.Stats.Busy.utilization t.replicas.(learner).rp_exec_busy ~from ~till

let replica_proc t ~learner = Ringpaxos.Mring.learner_proc (the_mr t) learner
let executed t ~learner = t.replicas.(learner).rp_executed
let rollbacks t ~learner = t.replicas.(learner).rp_rollbacks
let n_replicas t = Array.length t.replicas
