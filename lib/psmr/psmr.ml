module Executor = Executor

type approach = Sequential | Pipelined | Sdpe | Psmr

type command = {
  obj : int;
  dependent : bool;
  size : int;
}

type config = {
  approach : approach;
  n_workers : int;
  n_replicas : int;
  ring : Ringpaxos.Mring.config;
  exec_cost : float;
  sched_cost : float;
}

let default_config =
  { approach = Psmr;
    n_workers = 4;
    n_replicas = 2;
    ring = Ringpaxos.Mring.default_config;
    exec_cost = 8.0e-6;
    sched_cost = 2.0e-6 }

type Simnet.payload +=
  | PCmd of { obj : int; dependent : bool }
  | PResp of { uid : int }

type barrier = {
  mutable b_arrived : int;
  mutable b_ready : float;
  b_joined : bool array;
}

type replica = {
  rep_idx : int;
  workers : float array;  (* per-worker-thread next-free time *)
  busy : Sim.Stats.Busy.t;
  queues : (float * int * Paxos.Value.item) Queue.t array;  (* per worker *)
  barriers : (int, barrier) Hashtbl.t;  (* uid -> barrier *)
  obj_last : (int, float) Hashtbl.t;  (* SDPE conflict tracking *)
  mutable sched_free : float;
  mutable exec_count : int;
  mutable barrier_count : int;
}

type client = {
  cl_idx : int;
  mutable cl_uid : int;
  mutable cl_born : float;
}

type t = {
  net : Simnet.t;
  cfg : config;
  mutable mring : Multiring.t option;
  replicas : replica array;
  clients : client array;
  gen : int -> command;
  metrics : Smr.Metrics.t;
}

let the_mr t = match t.mring with Some m -> m | None -> assert false

let all_group t = t.cfg.n_workers (* group id subscribed by every worker *)

let responder_replica t uid = Paxos.Value.uid_seq uid mod t.cfg.n_replicas

let respond t rep ~learner ~uid ~at =
  if responder_replica t uid = rep.rep_idx then begin
    (* Ring-proposer 0 is the skip controller, so application client c is
       ring proposer c+1.  The uid carries the full proposer id (see
       Value.make_uid) — the old 8-bit decode wrapped past 255 clients and
       responses went to the wrong proposer, wedging the closed loop. *)
    let client = Paxos.Value.uid_origin uid - 1 in
    if client >= 0 && client < Array.length t.clients then
      ignore
        (Sim.Engine.at (Simnet.engine t.net) ~time:at (fun () ->
             Simnet.send t.net
               ~src:(Multiring.learner_proc (the_mr t) learner)
               ~dst:(Multiring.proposer_proc (the_mr t) ~group:0 ~proposer:client)
               ~size:64 (PResp { uid })))
  end

(* --- P-SMR worker pump -------------------------------------------------------- *)

let barrier_of t rep uid =
  match Hashtbl.find_opt rep.barriers uid with
  | Some b -> b
  | None ->
      let b =
        { b_arrived = 0; b_ready = 0.0; b_joined = Array.make t.cfg.n_workers false }
      in
      Hashtbl.add rep.barriers uid b;
      b

(* All workers joined [uid]'s barrier: the lowest-numbered worker executes
   (§6.3.3).  A worker's queue head is normally the barrier entry itself,
   but a same-tick interleave (e.g. a batched sink delivery) can leave an
   independent command ahead of it — those were delivered first, so drain
   them (execute, respond) before popping the barrier entry, and fold the
   drained work into the barrier's ready time.  The previous code asserted
   the head was the barrier entry and crashed on any interleave. *)
let rec complete_barrier t rep ~uid b =
  let ready = ref b.b_ready in
  for i = 0 to t.cfg.n_workers - 1 do
    let rec drain () =
      match Queue.peek_opt rep.queues.(i) with
      | Some (arrived, g, it') when g < t.cfg.n_workers ->
          ignore (Queue.pop rep.queues.(i));
          let start = Stdlib.max arrived rep.workers.(i) in
          let fin = start +. t.cfg.exec_cost in
          rep.workers.(i) <- fin;
          Sim.Stats.Busy.add_at rep.busy ~now:start t.cfg.exec_cost;
          rep.exec_count <- rep.exec_count + 1;
          respond t rep ~learner:((rep.rep_idx * t.cfg.n_workers) + i)
            ~uid:it'.Paxos.Value.uid ~at:fin;
          drain ()
      | Some (_, g, it') when g = all_group t && it'.Paxos.Value.uid = uid ->
          ignore (Queue.pop rep.queues.(i))
      | _ ->
          (* A worker counted as arrived must hold the barrier entry. *)
          assert false
    in
    drain ();
    ready := Stdlib.max !ready rep.workers.(i)
  done;
  let fin = !ready +. t.cfg.exec_cost in
  for i = 0 to t.cfg.n_workers - 1 do
    rep.workers.(i) <- fin
  done;
  Sim.Stats.Busy.add_at rep.busy ~now:!ready t.cfg.exec_cost;
  rep.exec_count <- rep.exec_count + 1;
  rep.barrier_count <- rep.barrier_count + 1;
  Hashtbl.remove rep.barriers uid;
  respond t rep ~learner:(rep.rep_idx * t.cfg.n_workers) ~uid ~at:fin;
  for i = 0 to t.cfg.n_workers - 1 do
    pump t rep i
  done

and pump t rep w =
  match Queue.peek_opt rep.queues.(w) with
  | None -> ()
  | Some (arrived, group, it) ->
      if group < t.cfg.n_workers then begin
        (* Independent command: this worker alone executes it. *)
        ignore (Queue.pop rep.queues.(w));
        let start = Stdlib.max arrived rep.workers.(w) in
        let fin = start +. t.cfg.exec_cost in
        rep.workers.(w) <- fin;
        Sim.Stats.Busy.add_at rep.busy ~now:start t.cfg.exec_cost;
        rep.exec_count <- rep.exec_count + 1;
        respond t rep ~learner:((rep.rep_idx * t.cfg.n_workers) + w)
          ~uid:it.Paxos.Value.uid ~at:fin;
        pump t rep w
      end
      else begin
        (* Dependent command: all workers synchronise on a barrier. *)
        let b = barrier_of t rep it.Paxos.Value.uid in
        if not b.b_joined.(w) then begin
          b.b_joined.(w) <- true;
          b.b_arrived <- b.b_arrived + 1;
          b.b_ready <- Stdlib.max b.b_ready (Stdlib.max arrived rep.workers.(w));
          if b.b_arrived = t.cfg.n_workers then
            complete_barrier t rep ~uid:it.Paxos.Value.uid b
        end
      end

let psmr_deliver t ~learner ~group it =
  let rep = t.replicas.(learner / t.cfg.n_workers) in
  let w = learner mod t.cfg.n_workers in
  Queue.push (Simnet.now t.net, group, it) rep.queues.(w);
  pump t rep w

(* --- single-stream approaches -------------------------------------------------- *)

let sdpe_deliver t ~learner (it : Paxos.Value.item) app =
  let rep = t.replicas.(learner) in
  let now = Simnet.now t.net in
  (* Scheduler thread parses the command and tracks conflicts. *)
  rep.sched_free <- Stdlib.max now rep.sched_free +. t.cfg.sched_cost;
  let dispatched = rep.sched_free in
  (match app with
  | PCmd { obj; dependent } ->
      let fin =
        if dependent then begin
          (* Conflicts with everything: wait for all workers. *)
          let start = Array.fold_left Stdlib.max dispatched rep.workers in
          let fin = start +. t.cfg.exec_cost in
          Array.iteri (fun i _ -> rep.workers.(i) <- fin) rep.workers;
          rep.barrier_count <- rep.barrier_count + 1;
          fin
        end
        else begin
          let w = obj mod t.cfg.n_workers in
          let after_obj =
            Stdlib.max dispatched
              (Option.value ~default:0.0 (Hashtbl.find_opt rep.obj_last obj))
          in
          let start = Stdlib.max after_obj rep.workers.(w) in
          let fin = start +. t.cfg.exec_cost in
          rep.workers.(w) <- fin;
          Hashtbl.replace rep.obj_last obj fin;
          fin
        end
      in
      Sim.Stats.Busy.add_at rep.busy ~now:(fin -. t.cfg.exec_cost) t.cfg.exec_cost;
      rep.exec_count <- rep.exec_count + 1;
      respond t rep ~learner ~uid:it.uid ~at:fin
  | _ -> ())

let serial_deliver t ~learner (it : Paxos.Value.item) =
  (* Sequential and pipelined SMR: one executor thread. *)
  let rep = t.replicas.(learner) in
  let now = Simnet.now t.net in
  let start = Stdlib.max now rep.workers.(0) in
  let fin = start +. t.cfg.exec_cost in
  rep.workers.(0) <- fin;
  Sim.Stats.Busy.add_at rep.busy ~now:start t.cfg.exec_cost;
  rep.exec_count <- rep.exec_count + 1;
  respond t rep ~learner ~uid:it.Paxos.Value.uid ~at:fin

let sequential_deliver t ~learner (it : Paxos.Value.item) =
  (* Sequential SMR executes on the same thread that handles delivery: the
     service time also occupies the replica's process CPU. *)
  let rep = t.replicas.(learner) in
  let learner_proc = Multiring.learner_proc (the_mr t) learner in
  Simnet.charge_cpu t.net learner_proc t.cfg.exec_cost;
  serial_deliver t ~learner it;
  ignore rep

(* --- clients --------------------------------------------------------------------- *)

let group_of t cmd = if cmd.dependent then all_group t else cmd.obj mod t.cfg.n_workers

let rec submit_next t c =
  let cmd = t.gen c.cl_idx in
  let group = match t.cfg.approach with Psmr -> group_of t cmd | _ -> 0 in
  let uid =
    Multiring.multicast (the_mr t) ~group ~proposer:c.cl_idx ~size:cmd.size
      (PCmd { obj = cmd.obj; dependent = cmd.dependent })
  in
  if uid < 0 then ignore (Simnet.after t.net 1.0e-3 (fun () -> submit_next t c))
  else begin
    c.cl_uid <- uid;
    c.cl_born <- Simnet.now t.net
  end

let create net cfg ~n_clients ~gen =
  let metrics = Smr.Metrics.create (Simnet.engine net) in
  let replicas =
    Array.init cfg.n_replicas (fun r ->
        { rep_idx = r;
          workers = Array.make (Stdlib.max 1 cfg.n_workers) 0.0;
          busy = Sim.Stats.Busy.create ();
          queues = Array.init (Stdlib.max 1 cfg.n_workers) (fun _ -> Queue.create ());
          barriers = Hashtbl.create 256;
          obj_last = Hashtbl.create 1024;
          sched_free = 0.0;
          exec_count = 0;
          barrier_count = 0 })
  in
  let clients =
    Array.init n_clients (fun i -> { cl_idx = i; cl_uid = -1; cl_born = 0.0 })
  in
  let t = { net; cfg; mring = None; replicas; clients; gen; metrics } in
  let n_rings, n_learners, subs, nodes =
    match cfg.approach with
    | Psmr ->
        let nodes =
          Array.init (cfg.n_replicas * cfg.n_workers) (fun l ->
              l / cfg.n_workers)
        in
        let machines =
          Array.init cfg.n_replicas (fun r -> Simnet.add_node net (Printf.sprintf "psmr-rep%d" r))
        in
        ( cfg.n_workers + 1,
          cfg.n_replicas * cfg.n_workers,
          (fun l -> [ l mod cfg.n_workers; cfg.n_workers ]),
          Some (Array.map (fun r -> machines.(r)) nodes) )
    | _ -> (1, cfg.n_replicas, (fun _ -> [ 0 ]), None)
  in
  let deliver ~learner ~group it app =
    match cfg.approach with
    | Psmr -> psmr_deliver t ~learner ~group it
    | Sdpe -> sdpe_deliver t ~learner it app
    | Pipelined -> serial_deliver t ~learner it
    | Sequential -> sequential_deliver t ~learner it
  in
  let mr =
    Multiring.create ?learner_nodes:nodes net
      (Multiring.service_config cfg.ring ~n_rings)
      ~n_learners ~subs
      ~proposers_per_ring:n_clients ~deliver
  in
  t.mring <- Some mr;
  (* Client response handling on the ring-0 proposer processes. *)
  Array.iter
    (fun c ->
      let p = Multiring.proposer_proc mr ~group:0 ~proposer:c.cl_idx in
      let prev = Simnet.handler_of p in
      Simnet.set_handler p (fun m ->
          match m.payload with
          | PResp { uid } when uid = c.cl_uid ->
              Smr.Metrics.command t.metrics ~born:c.cl_born ~bytes:m.size;
              submit_next t c
          | _ -> prev m))
    clients;
  t

let start t =
  Array.iter
    (fun c ->
      ignore
        (Simnet.after t.net (0.001 +. (1.0e-5 *. float_of_int c.cl_idx)) (fun () ->
             submit_next t c)))
    t.clients

let metrics t = t.metrics

(* --- per-replica and aggregated counters ----------------------------------------
   These used to read only replica 0, silently reporting one replica's
   counters as the system's on multi-replica runs. *)

let barriers_at t r = t.replicas.(r).barrier_count
let executed_at t r = t.replicas.(r).exec_count

let barriers t =
  Array.fold_left (fun acc r -> acc + r.barrier_count) 0 t.replicas

let executed t = Array.fold_left (fun acc r -> acc + r.exec_count) 0 t.replicas

let worker_utilization_at t r ~from ~till =
  Sim.Stats.Busy.utilization t.replicas.(r).busy ~from ~till
  /. float_of_int (Stdlib.max 1 t.cfg.n_workers)

let worker_utilization t ~from ~till =
  let sum = ref 0.0 in
  Array.iter
    (fun r -> sum := !sum +. worker_utilization_at t r.rep_idx ~from ~till)
    t.replicas;
  !sum /. float_of_int (Stdlib.max 1 t.cfg.n_replicas)

let table_6_1 =
  [ ("Sequential SMR", "total order", "sequential", "none");
    ("Pipelined SMR", "total order", "sequential", "staged agreement");
    ("SDPE (CBASE)", "total order", "parallel", "replica-side scheduler");
    ("Execute-Verify (Eve)", "optimistic", "parallel", "verify + rollback");
    ("PDPE / P-SMR", "partial order (multicast)", "parallel", "client-side mapping") ]

let render_table_6_1 () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-22s %-27s %-12s %s\n" "Approach" "Ordering" "Execution"
       "Parallelisation mechanism");
  List.iter
    (fun (a, o, e, m) ->
      Buffer.add_string buf (Printf.sprintf "%-22s %-27s %-12s %s\n" a o e m))
    table_6_1;
  Buffer.contents buf

(* --- white-box testing hooks ------------------------------------------------------ *)

module Testing = struct
  let enqueue t ~replica ~worker ~group ~uid =
    let rep = t.replicas.(replica) in
    let it =
      { Paxos.Value.uid; isize = 0; app = Simnet.Noop; born = Simnet.now t.net }
    in
    Queue.push (Simnet.now t.net, group, it) rep.queues.(worker)

  let pump t ~replica ~worker = pump t t.replicas.(replica) worker

  let join t ~replica ~worker ~uid =
    let rep = t.replicas.(replica) in
    let b = barrier_of t rep uid in
    if not b.b_joined.(worker) then begin
      b.b_joined.(worker) <- true;
      b.b_arrived <- b.b_arrived + 1;
      b.b_ready <- Stdlib.max b.b_ready rep.workers.(worker);
      if b.b_arrived = t.cfg.n_workers then complete_barrier t rep ~uid b
    end

  let queue_length t ~replica ~worker =
    Queue.length t.replicas.(replica).queues.(worker)

  (* The response-routing decode used by [respond]: which client index a
     response for [uid] goes to, and which replica sends it. *)
  let responder_client _t ~uid = Paxos.Value.uid_origin uid - 1
  let responder_replica t ~uid = responder_replica t uid
end
