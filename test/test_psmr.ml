(* Tests for parallel state-machine replication (Chapter 6). *)

let make ?(config = Psmr.default_config) ?(n_clients = 8) ?(dep_pct = 0) ?(n_objects = 1024)
    ?(seed = 101) () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create seed) in
  let rng = Sim.Rng.create (seed + 1) in
  let gen _ =
    let dependent = Sim.Rng.int rng 100 < dep_pct in
    { Psmr.obj = Sim.Rng.int rng n_objects; dependent; size = 128 }
  in
  let sys = Psmr.create net config ~n_clients ~gen in
  (engine, sys)

let run_kcps ?(until = 1.0) engine sys =
  Psmr.start sys;
  Sim.Engine.run engine ~until;
  Smr.Metrics.kcps (Psmr.metrics sys) ~from:(until /. 2.0) ~till:until

let test_psmr_completes () =
  let engine, sys = make () in
  let kcps = run_kcps engine sys in
  Alcotest.(check bool) "completes commands" true (kcps > 0.1);
  Alcotest.(check bool) "executed at replica 0" true (Psmr.executed sys > 50)

let test_all_approaches_complete () =
  List.iter
    (fun approach ->
      let config = { Psmr.default_config with approach } in
      let engine, sys = make ~config () in
      let kcps = run_kcps ~until:0.5 engine sys in
      Alcotest.(check bool) "completes" true (kcps > 0.05))
    [ Psmr.Sequential; Psmr.Pipelined; Psmr.Sdpe; Psmr.Psmr ]

let test_psmr_scales_with_workers_independent () =
  (* Fig. 6.3/6.6: with independent commands, P-SMR throughput grows with
     workers while sequential stays flat. *)
  let tput approach n_workers =
    let config =
      { Psmr.default_config with approach; n_workers; exec_cost = 4.0e-5 }
    in
    let engine, sys = make ~config ~n_clients:200 () in
    run_kcps ~until:0.6 engine sys
  in
  let p1 = tput Psmr.Psmr 1 and p4 = tput Psmr.Psmr 4 in
  let s1 = tput Psmr.Sequential 1 and s4 = tput Psmr.Sequential 4 in
  Alcotest.(check bool)
    (Printf.sprintf "P-SMR scales (%.1f -> %.1f kcps)" p1 p4)
    true (p4 > p1 *. 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "sequential does not (%.1f -> %.1f kcps)" s1 s4)
    true (s4 < s1 *. 1.5)

let test_dependent_commands_barrier () =
  let config = { Psmr.default_config with n_workers = 4 } in
  let engine, sys = make ~config ~dep_pct:100 ~n_clients:8 () in
  ignore (run_kcps ~until:0.5 engine sys);
  Alcotest.(check bool) "barriers executed" true (Psmr.barriers sys > 20);
  Alcotest.(check int) "every execution was a barrier" (Psmr.barriers sys) (Psmr.executed sys)

let test_dependent_no_scaling () =
  (* Fig. 6.4: with dependent commands P-SMR gains nothing from workers. *)
  let tput n_workers =
    let config = { Psmr.default_config with n_workers; exec_cost = 4.0e-5 } in
    let engine, sys = make ~config ~dep_pct:100 ~n_clients:32 () in
    run_kcps ~until:0.6 engine sys
  in
  let p1 = tput 1 and p4 = tput 4 in
  Alcotest.(check bool)
    (Printf.sprintf "no scaling on dependent (%.1f vs %.1f kcps)" p1 p4)
    true (p4 < p1 *. 1.5)

let test_mixed_workload_between () =
  (* Fig. 6.5: throughput degrades as the dependent share grows. *)
  let tput dep_pct =
    let config = { Psmr.default_config with n_workers = 4; exec_cost = 4.0e-5 } in
    let engine, sys = make ~config ~dep_pct ~n_clients:48 () in
    run_kcps ~until:0.6 engine sys
  in
  let t0 = tput 0 and t50 = tput 50 and t100 = tput 100 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone degradation (%.1f, %.1f, %.1f)" t0 t50 t100)
    true
    (t0 > t50 && t50 > t100)

let test_sdpe_scheduler_bottleneck () =
  (* SDPE is capped by its scheduler even with many workers. *)
  let tput approach =
    let config =
      { Psmr.default_config with
        approach;
        n_workers = 8;
        exec_cost = 4.0e-5;
        sched_cost = 2.0e-5 }
    in
    let engine, sys = make ~config ~n_clients:200 () in
    run_kcps ~until:0.6 engine sys
  in
  let sdpe = tput Psmr.Sdpe and psmr = tput Psmr.Psmr in
  Alcotest.(check bool)
    (Printf.sprintf "P-SMR (%.1f) beats SDPE (%.1f) with 8 workers" psmr sdpe)
    true (psmr > sdpe *. 1.3)

let test_table_6_1 () =
  Alcotest.(check int) "five approaches" 5 (List.length Psmr.table_6_1);
  let s = Psmr.render_table_6_1 () in
  Alcotest.(check bool) "mentions P-SMR" true (Astring_contains.contains s "P-SMR")

let suite =
  [ Alcotest.test_case "psmr completes" `Quick test_psmr_completes;
    Alcotest.test_case "all approaches complete" `Quick test_all_approaches_complete;
    Alcotest.test_case "psmr scales with workers" `Quick
      test_psmr_scales_with_workers_independent;
    Alcotest.test_case "dependent commands barrier" `Quick test_dependent_commands_barrier;
    Alcotest.test_case "dependent: no scaling" `Quick test_dependent_no_scaling;
    Alcotest.test_case "mixed workloads degrade monotonically" `Quick
      test_mixed_workload_between;
    Alcotest.test_case "sdpe scheduler bottleneck" `Quick test_sdpe_scheduler_bottleneck;
    Alcotest.test_case "table 6.1" `Quick test_table_6_1 ]

let test_pipelined_beats_sequential_at_high_exec_cost () =
  (* Sequential SMR executes on the delivery thread, so heavy commands also
     stall its network processing; pipelined SMR moves execution to a
     dedicated thread (Fig. 6.1 b vs c). *)
  let tput approach =
    let config =
      { Psmr.default_config with approach; n_workers = 1; exec_cost = 3.0e-5 }
    in
    let engine, sys = make ~config ~n_clients:100 () in
    run_kcps ~until:0.8 engine sys
  in
  let seq = tput Psmr.Sequential and pipe = tput Psmr.Pipelined in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined (%.1f) >= sequential (%.1f)" pipe seq)
    true (pipe >= seq *. 0.98)

let suite =
  suite
  @ [ Alcotest.test_case "pipelined >= sequential" `Quick
        test_pipelined_beats_sequential_at_high_exec_cost ]

(* --- uid widening (>255 clients) -------------------------------------------- *)

let test_uid_roundtrip_wide_origins () =
  (* The old uid layout kept 8 bits for the origin: proposer 256 wrapped to
     0 and responses went to the wrong client. *)
  List.iter
    (fun origin ->
      List.iter
        (fun seq ->
          let uid = Paxos.Value.make_uid ~seq ~origin in
          Alcotest.(check int) "origin survives" origin (Paxos.Value.uid_origin uid);
          Alcotest.(check int) "seq survives" seq (Paxos.Value.uid_seq uid))
        [ 0; 1; 255; 256; 100_000 ])
    [ 0; 1; 255; 256; 300; 1_000; 999_999 ]

let test_response_routing_past_255_clients () =
  let config = { Psmr.default_config with approach = Psmr.Sequential } in
  let _engine, sys = make ~config ~n_clients:300 () in
  (* Ring proposer c+1 is application client c; client 279 is past the old
     8-bit wrap point. *)
  let uid = Paxos.Value.make_uid ~seq:7 ~origin:280 in
  Alcotest.(check int) "client decode survives >255" 279
    (Psmr.Testing.responder_client sys ~uid);
  Alcotest.(check int) "responder replica from seq" (7 mod 2)
    (Psmr.Testing.responder_replica sys ~uid);
  (* And the wrapped decode would have picked client (280 land 0xff) - 1. *)
  Alcotest.(check bool) "differs from the wrapped decode" true
    (Psmr.Testing.responder_client sys ~uid <> (280 land 0xff) - 1)

let test_closed_loop_past_255_clients () =
  (* Liveness with a client population the old encoding could not address:
     all 300 closed-loop clients keep cycling. *)
  let config = { Psmr.default_config with approach = Psmr.Sequential } in
  let engine, sys = make ~config ~n_clients:300 () in
  ignore (run_kcps ~until:0.6 engine sys);
  Alcotest.(check bool) "hundreds of clients complete commands" true
    (Smr.Metrics.completed (Psmr.metrics sys) > 600)

(* --- per-replica metrics aggregation ----------------------------------------- *)

let test_metrics_aggregate_across_replicas () =
  let config = { Psmr.default_config with n_workers = 4 } in
  let engine, sys = make ~config ~dep_pct:50 ~n_clients:32 () in
  ignore (run_kcps ~until:0.5 engine sys);
  let per_replica_exec =
    List.init config.n_replicas (fun r -> Psmr.executed_at sys r)
  in
  let per_replica_barriers =
    List.init config.n_replicas (fun r -> Psmr.barriers_at sys r)
  in
  Alcotest.(check int) "executed is the sum over replicas"
    (List.fold_left ( + ) 0 per_replica_exec)
    (Psmr.executed sys);
  Alcotest.(check int) "barriers is the sum over replicas"
    (List.fold_left ( + ) 0 per_replica_barriers)
    (Psmr.barriers sys);
  (* Replicas execute the same stream: each must have done real work (the
     old accessors read replica 0 only, hiding the rest). *)
  List.iter
    (fun e -> Alcotest.(check bool) "every replica executed" true (e > 50))
    per_replica_exec;
  let u0 = Psmr.worker_utilization_at sys 0 ~from:0.1 ~till:0.5 in
  let u1 = Psmr.worker_utilization_at sys 1 ~from:0.1 ~till:0.5 in
  let agg = Psmr.worker_utilization sys ~from:0.1 ~till:0.5 in
  Alcotest.(check (float 1e-6)) "aggregate utilization is the mean"
    ((u0 +. u1) /. 2.0) agg

(* --- barrier completion tolerates interleaved independent heads --------------- *)

let test_barrier_drains_interleaved_heads () =
  (* Worker 1 has an independent command queued ahead of the barrier entry
     when the barrier completes.  The old completion scan asserted every
     joined worker's queue head was the barrier entry and crashed
     (Assert_failure) on this state; the fix drains the independent head
     first.  Built via Testing hooks because the current delivery
     discipline only produces the interleave under batched sinks. *)
  let config =
    { Psmr.default_config with approach = Psmr.Psmr; n_workers = 2; n_replicas = 1 }
  in
  let _engine, sys = make ~config ~n_clients:2 () in
  let barrier_uid = Paxos.Value.make_uid ~seq:1 ~origin:0 in
  let indep_uid = Paxos.Value.make_uid ~seq:2 ~origin:0 in
  let all = config.n_workers in
  (* Worker 0: barrier entry at head; pump makes it join. *)
  Psmr.Testing.enqueue sys ~replica:0 ~worker:0 ~group:all ~uid:barrier_uid;
  Psmr.Testing.pump sys ~replica:0 ~worker:0;
  Alcotest.(check int) "nothing executed yet" 0 (Psmr.executed sys);
  (* Worker 1: an independent entry is interleaved ahead of the barrier. *)
  Psmr.Testing.enqueue sys ~replica:0 ~worker:1 ~group:0 ~uid:indep_uid;
  Psmr.Testing.enqueue sys ~replica:0 ~worker:1 ~group:all ~uid:barrier_uid;
  (* Worker 1 joins with a foreign head: completes the barrier. *)
  Psmr.Testing.join sys ~replica:0 ~worker:1 ~uid:barrier_uid;
  Alcotest.(check int) "barrier executed" 1 (Psmr.barriers sys);
  Alcotest.(check int) "independent head drained and executed" 2
    (Psmr.executed sys);
  Alcotest.(check int) "worker 0 queue empty" 0
    (Psmr.Testing.queue_length sys ~replica:0 ~worker:0);
  Alcotest.(check int) "worker 1 queue empty" 0
    (Psmr.Testing.queue_length sys ~replica:0 ~worker:1)

(* --- dependency-aware executor ------------------------------------------------ *)

module Ex = Psmr.Executor

let exec_stream ?(n_workers = 4) ?(window = 32) ~mode keys =
  (* Self-clocked feed of single-key read-modify-writes; returns the
     executor, its service and the per-command reports. *)
  let svc = Smr.Btree_service.create ~initial_keys:100 ~key_range:100_000 ~seed:1 () in
  let ex = Ex.create ~mode ~n_workers svc.Smr.Btree_service.service in
  let n = Array.length keys in
  let commits = Array.make n 0.0 in
  let reports =
    Array.mapi
      (fun i key ->
        let now = if i < window then 0.0 else commits.(i - window) in
        let ks = Btree.Keyset.singleton key in
        Ex.submit ex ~now ~uid:i ~reads:ks ~writes:ks
          (Smr.Btree_service.Insert { key; value = i });
        let r = Ex.last_report ex in
        commits.(i) <- r.Ex.r_commit;
        r)
      keys
  in
  (ex, svc, reports)

let hot_stream ?(n = 400) ?(hot_pct = 30) ?(n_hot = 4) seed =
  let rng = Sim.Rng.create seed in
  Array.init n (fun i ->
      if Sim.Rng.int rng 100 < hot_pct then 1 + Sim.Rng.int rng n_hot
      else 100 + i)

let sequential_fingerprint keys =
  let _, svc, _ = exec_stream ~n_workers:1 ~mode:Ex.Pessimistic keys in
  Smr.Btree_service.fingerprint svc

let test_executor_conflict_serialization () =
  (* Pessimistic mode: conflicting commands (same key) never overlap in
     simulated time, and the final tree equals the sequential reference. *)
  let keys = hot_stream 7 in
  let _, svc, reports = exec_stream ~mode:Ex.Pessimistic keys in
  let n = Array.length keys in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if keys.(i) = keys.(j) then begin
        let ri = reports.(i) and rj = reports.(j) in
        if not (ri.Ex.r_fin <= rj.Ex.r_start || rj.Ex.r_fin <= ri.Ex.r_start)
        then
          Alcotest.failf "conflicting %d and %d overlap: [%f,%f) vs [%f,%f)" i
            j ri.Ex.r_start ri.Ex.r_fin rj.Ex.r_start rj.Ex.r_fin
      end
    done
  done;
  Alcotest.(check int) "state equals sequential reference"
    (sequential_fingerprint keys)
    (Smr.Btree_service.fingerprint svc)

let test_executor_commits_in_log_order () =
  let keys = hot_stream 8 in
  List.iter
    (fun mode ->
      let _, _, reports = exec_stream ~mode keys in
      Array.iteri
        (fun i r ->
          if i > 0 && r.Ex.r_commit < reports.(i - 1).Ex.r_commit then
            Alcotest.failf "command %d committed before its predecessor" i)
        reports)
    [ Ex.Pessimistic; Ex.Optimistic ]

let test_executor_rollback_safety () =
  (* Optimistic mode on a hot stream must roll back, and rolled-back
     writes must never be observable: the final tree still equals the
     sequential reference. *)
  let keys = hot_stream ~hot_pct:60 9 in
  let ex, svc, reports = exec_stream ~mode:Ex.Optimistic keys in
  Alcotest.(check bool) "rollbacks happened" true (Ex.rollbacks ex > 0);
  Alcotest.(check bool) "conflicts detected" true (Ex.conflicts ex > 0);
  Alcotest.(check int) "reports count rollbacks too" (Ex.rollbacks ex)
    (Array.fold_left (fun a r -> a + r.Ex.r_rollbacks) 0 reports);
  Alcotest.(check int) "state equals sequential reference despite rollbacks"
    (sequential_fingerprint keys)
    (Smr.Btree_service.fingerprint svc)

let test_executor_rollback_determinism () =
  (* Same seed, same stream: identical rollback counts and state. *)
  List.iter
    (fun seed ->
      let keys = hot_stream ~hot_pct:50 seed in
      let ex1, svc1, _ = exec_stream ~mode:Ex.Optimistic keys in
      let ex2, svc2, _ = exec_stream ~mode:Ex.Optimistic keys in
      Alcotest.(check int) "rollback count deterministic" (Ex.rollbacks ex1)
        (Ex.rollbacks ex2);
      Alcotest.(check int) "state deterministic"
        (Smr.Btree_service.fingerprint svc1)
        (Smr.Btree_service.fingerprint svc2))
    [ 3; 4; 5 ]

let prop_executor_modes_agree =
  (* Random key streams: optimistic, pessimistic and sequential execution
     all end in the same tree. *)
  QCheck.Test.make ~name:"executor: optimistic = pessimistic = sequential"
    ~count:40
    QCheck.(list_of_size Gen.(int_range 1 120) (int_range 1 16))
    (fun keys ->
      let keys = Array.of_list keys in
      let seq = sequential_fingerprint keys in
      let _, p, _ = exec_stream ~mode:Ex.Pessimistic keys in
      let _, o, _ = exec_stream ~mode:Ex.Optimistic keys in
      Smr.Btree_service.fingerprint p = seq
      && Smr.Btree_service.fingerprint o = seq)

(* --- executor against a reference model ---------------------------------------- *)

(* The executor's scheduling algorithm in its plain list-based form: the
   active set is a list filtered on every submission, and every fold is a
   closure.  The flat executor must reproduce it float for float. *)
module Model = struct
  type entry = { reads : Btree.Keyset.t; writes : Btree.Keyset.t; fin : float }

  type t = {
    svc : Smr.Service.t;
    workers : float array;
    mutable active : entry list;
    mutable clock : float;
    mutable last_commit : float;
    mutable executed : int;
    mutable rollbacks : int;
    mutable conflicts : int;
  }

  let create ~n_workers svc =
    { svc; workers = Array.make n_workers 0.0; active = []; clock = 0.0;
      last_commit = 0.0; executed = 0; rollbacks = 0; conflicts = 0 }

  let argmin_free m =
    let w = ref 0 in
    Array.iteri (fun i f -> if f < m.workers.(!w) then w := i) m.workers;
    !w

  let submit m ~mode ~now ~reads ~writes op =
    m.clock <- Stdlib.max m.clock now;
    let now = m.clock in
    let wm = Stdlib.max now (Array.fold_left Stdlib.min m.workers.(0) m.workers) in
    m.active <- List.filter (fun e -> e.fin > wm) m.active;
    let w = argmin_free m in
    let ready, start, fin, rolls =
      match mode with
      | Ex.Pessimistic ->
          let ready =
            List.fold_left
              (fun acc e ->
                if e.fin > acc
                   && Btree.Keyset.conflict ~r1:reads ~w1:writes ~r2:e.reads ~w2:e.writes
                then e.fin
                else acc)
              now m.active
          in
          let start = Stdlib.max ready m.workers.(w) in
          (ready, start, start +. (m.svc.execute op).cost, 0)
      | Ex.Optimistic ->
          let rec attempt start (o : Smr.Service.outcome) n =
            let fin = start +. o.cost in
            let stale =
              List.filter
                (fun e -> e.fin > start && Btree.Keyset.overlaps e.writes reads)
                m.active
            in
            if stale = [] then (fin, n)
            else begin
              m.conflicts <- m.conflicts + 1;
              m.rollbacks <- m.rollbacks + 1;
              Option.iter (fun u -> u ()) (m.svc.last_undo ());
              let settled = List.fold_left (fun a e -> Stdlib.max a e.fin) 0.0 stale in
              let start' = Stdlib.max settled (fin +. m.svc.rollback_cost) in
              attempt start' (m.svc.execute op) (n + 1)
            end
          in
          let start0 = Stdlib.max now m.workers.(w) in
          let fin, n = attempt start0 (m.svc.execute op) 0 in
          (now, start0, fin, n)
    in
    m.workers.(w) <- fin;
    let commit = Stdlib.max fin m.last_commit in
    m.last_commit <- commit;
    m.executed <- m.executed + 1;
    m.active <- { reads; writes; fin } :: m.active;
    { Ex.r_ready = ready; r_start = start; r_fin = fin; r_commit = commit;
      r_rollbacks = rolls }

  (* A read outside the log: wait for overlapping writes, take the first
     free worker, join the active set, commit nothing. *)
  let read m ~now ~reads ~cost =
    m.clock <- Stdlib.max m.clock now;
    let now = m.clock in
    let wm = Stdlib.max now (Array.fold_left Stdlib.min m.workers.(0) m.workers) in
    m.active <- List.filter (fun e -> e.fin > wm) m.active;
    let ready =
      List.fold_left
        (fun acc e ->
          if e.fin > acc && Btree.Keyset.overlaps e.writes reads then e.fin else acc)
        now m.active
    in
    let w = argmin_free m in
    let start = Stdlib.max ready m.workers.(w) in
    let fin = start +. cost in
    m.workers.(w) <- fin;
    m.active <- { reads; writes = Btree.Keyset.empty; fin } :: m.active;
    (start, fin)
end

(* A command: time step in microseconds (negative steps move [now]
   backwards), kind (0 read, 1 write, 2 read-write, 3 a read outside the
   log through [Ex.read]), first key and range width (0 is a point
   key-set). *)
let gen_cmd =
  QCheck.Gen.(quad (int_range (-3) 12) (int_range 0 3) (int_range 1 24) (int_range 0 3))

let prop_executor_matches_model =
  QCheck.Test.make ~name:"executor: flat state matches the list-based model" ~count:300
    QCheck.(
      make
        ~print:
          Print.(
            triple int bool
              (list (fun (dt, k, lo, wd) -> Printf.sprintf "(%d,%d,%d,%d)" dt k lo wd)))
        Gen.(triple (int_range 1 4) bool (list_size (int_range 1 120) gen_cmd)))
    (fun (n_workers, optimistic, cmds) ->
      let mode = if optimistic then Ex.Optimistic else Ex.Pessimistic in
      let svc () = Smr.Btree_service.create ~initial_keys:16 ~key_range:32 ~seed:3 () in
      let s1 = svc () and s2 = svc () in
      let ex = Ex.create ~mode ~n_workers s1.Smr.Btree_service.service in
      let m = Model.create ~n_workers s2.Smr.Btree_service.service in
      let now = ref 0.0 in
      (* The latest ordered command's report: a read must leave it be. *)
      let want =
        ref { Ex.r_ready = 0.0; r_start = 0.0; r_fin = 0.0; r_commit = 0.0; r_rollbacks = 0 }
      in
      List.iteri
        (fun i (dt, kind, lo, width) ->
          now := !now +. (float_of_int dt *. 1e-6);
          let ks =
            if width = 0 then Btree.Keyset.singleton lo
            else Btree.Keyset.range ~lo ~hi:(lo + width)
          in
          let same what a b =
            if not (a = b) then
              QCheck.Test.fail_reportf "command %d: %s %h <> model %h" i what a b
          in
          if kind = 3 then begin
            let cost = float_of_int (1 + width) *. 1e-6 in
            Ex.read ex ~now:!now ~reads:ks ~cost;
            let start, fin = Model.read m ~now:!now ~reads:ks ~cost in
            same "read start" (Ex.last_read_start ex) start;
            same "read fin" (Ex.last_read_fin ex) fin
          end
          else begin
            let reads = if kind = 1 then Btree.Keyset.empty else ks in
            let writes = if kind = 0 then Btree.Keyset.empty else ks in
            let op =
              if kind = 0 then Smr.Btree_service.Query { lo; hi = lo + width }
              else Smr.Btree_service.Insert { key = lo; value = i }
            in
            Ex.submit ex ~now:!now ~uid:i ~reads ~writes op;
            want := Model.submit m ~mode ~now:!now ~reads ~writes op
          end;
          let want = !want in
          let got = Ex.last_report ex in
          same "ready" got.r_ready want.r_ready;
          same "start" got.r_start want.r_start;
          same "fin" got.r_fin want.r_fin;
          same "commit" got.r_commit want.r_commit;
          same "last_commit" (Ex.last_commit ex) m.last_commit;
          let count what a b =
            if a <> b then QCheck.Test.fail_reportf "command %d: %s %d <> model %d" i what a b
          in
          count "report rollbacks" got.r_rollbacks want.r_rollbacks;
          count "last_rollbacks" (Ex.last_rollbacks ex) want.r_rollbacks;
          count "executed" (Ex.executed ex) m.executed;
          count "rollbacks" (Ex.rollbacks ex) m.rollbacks;
          count "conflicts" (Ex.conflicts ex) m.conflicts;
          count "inflight" (Ex.inflight ex) (List.length m.active))
        cmds;
      Smr.Btree_service.fingerprint s1 = Smr.Btree_service.fingerprint s2)

(* --- allocation bounds on the apply path --------------------------------------- *)

let test_executor_submit_allocation () =
  (* Steady-state pessimistic submission over a constant-outcome service:
     4 workers with about 4 commands in flight.  The active set is flat
     arrays compacted in place, so the only allocation left is the boxed
     [~now] this loop passes. *)
  let cost = 1.0e-6 in
  let ex =
    Ex.create ~mode:Ex.Pessimistic ~n_workers:4 (Smr.Service.dummy ~cost ())
  in
  let keys = Array.init 64 Btree.Keyset.singleton in
  let step i =
    let ks = keys.(i land 63) in
    Ex.submit ex ~now:(float_of_int i *. (cost /. 4.0)) ~uid:i ~reads:ks ~writes:ks
      Simnet.Noop
  in
  for i = 0 to 999 do
    step i
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1_000 to 1_000 + n - 1 do
    step i
  done;
  let per_cmd = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool) "commands stay in flight" true (Ex.inflight ex >= 3);
  Alcotest.(check bool)
    (Printf.sprintf "submit allocates %.2f words/command (<= 4)" per_cmd)
    true (per_cmd <= 4.0)

let test_executor_read_allocation () =
  (* Steady-state reads interleaved with writes, as the lease tier issues
     them: the read's finish comes back through the float slots, so the
     only allocation left is the boxed [~now] and [~cost] this loop
     passes. *)
  let cost = 1.0e-6 in
  let ex =
    Ex.create ~mode:Ex.Pessimistic ~n_workers:4 (Smr.Service.dummy ~cost ())
  in
  let keys = Array.init 64 Btree.Keyset.singleton in
  let step i =
    let ks = keys.(i land 63) and now = float_of_int i *. (cost /. 4.0) in
    if i land 1 = 0 then Ex.submit ex ~now ~uid:i ~reads:ks ~writes:ks Simnet.Noop
    else Ex.read ex ~now ~reads:ks ~cost
  in
  for i = 0 to 999 do
    step i
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1_000 to 1_000 + n - 1 do
    if i land 1 = 1 then step i
  done;
  let per_read = (Gc.minor_words () -. w0) /. float_of_int (n / 2) in
  Alcotest.(check bool) "commands stay in flight" true (Ex.inflight ex >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "read allocates %.2f words/read (<= 4)" per_read)
    true (per_read <= 4.0)

(* --- reads outside the log ------------------------------------------------------- *)

(* Two workers, commands of cost [c]: an ordered write of key 5 from t = 0
   is in flight on worker 0 until [c]. *)
let read_fixture () =
  let c = 1.0e-5 in
  let ex = Ex.create ~mode:Ex.Pessimistic ~n_workers:2 (Smr.Service.dummy ~cost:c ()) in
  let k5 = Btree.Keyset.singleton 5 in
  Ex.submit ex ~now:0.0 ~uid:1 ~reads:k5 ~writes:k5 Simnet.Noop;
  (ex, c, k5)

let test_executor_read_waits_for_write () =
  let ex, c, k5 = read_fixture () in
  Ex.read ex ~now:0.0 ~reads:k5 ~cost:c;
  Alcotest.(check (float 0.0)) "starts when the write finishes" c (Ex.last_read_start ex);
  Alcotest.(check (float 0.0)) "finishes one cost later" (2.0 *. c) (Ex.last_read_fin ex)

let test_executor_disjoint_read_starts_at_once () =
  let ex, c, _ = read_fixture () in
  Ex.read ex ~now:0.0 ~reads:(Btree.Keyset.singleton 6) ~cost:c;
  Alcotest.(check (float 0.0)) "starts at once on the free worker" 0.0
    (Ex.last_read_start ex);
  Alcotest.(check (float 0.0)) "finishes one cost later" c (Ex.last_read_fin ex);
  (* Both workers are now busy until [c]: the next read waits for one. *)
  Ex.read ex ~now:0.0 ~reads:(Btree.Keyset.singleton 7) ~cost:c;
  Alcotest.(check (float 0.0)) "waits for a free worker" c (Ex.last_read_start ex)

let test_executor_write_waits_for_read () =
  let ex, c, _ = read_fixture () in
  let k6 = Btree.Keyset.singleton 6 in
  Ex.read ex ~now:0.0 ~reads:k6 ~cost:(3.0 *. c);
  Alcotest.(check (float 0.0)) "read runs until 3c" (3.0 *. c) (Ex.last_read_fin ex);
  Ex.submit ex ~now:0.0 ~uid:2 ~reads:k6 ~writes:k6 Simnet.Noop;
  let r = Ex.last_report ex in
  Alcotest.(check (float 0.0)) "overlapping write ready after the read" (3.0 *. c) r.Ex.r_ready;
  (* A disjoint write does not wait for the read. *)
  let k7 = Btree.Keyset.singleton 7 in
  Ex.submit ex ~now:0.0 ~uid:3 ~reads:k7 ~writes:k7 Simnet.Noop;
  Alcotest.(check (float 0.0)) "disjoint write ready at once" 0.0
    (Ex.last_report ex).Ex.r_ready

let test_executor_read_leaves_commit_alone () =
  let ex, c, k5 = read_fixture () in
  let before = Ex.last_report ex in
  let commit = Ex.last_commit ex and executed = Ex.executed ex in
  Ex.read ex ~now:0.0 ~reads:k5 ~cost:(5.0 *. c);
  Ex.read ex ~now:c ~reads:(Btree.Keyset.singleton 9) ~cost:c;
  Alcotest.(check (float 0.0)) "last_commit" commit (Ex.last_commit ex);
  Alcotest.(check int) "executed" executed (Ex.executed ex);
  Alcotest.(check int) "last_rollbacks" 0 (Ex.last_rollbacks ex);
  Alcotest.(check bool) "last_report" true (Ex.last_report ex = before);
  (* Every worker is free of the write by [c], so only the reads remain. *)
  Alcotest.(check int) "reads join the tracker" 2 (Ex.inflight ex)

let suite =
  suite
  @ [ Alcotest.test_case "uid roundtrip, wide origins" `Quick
        test_uid_roundtrip_wide_origins;
      Alcotest.test_case "response routing past 255 clients" `Quick
        test_response_routing_past_255_clients;
      Alcotest.test_case "closed loop with 300 clients" `Quick
        test_closed_loop_past_255_clients;
      Alcotest.test_case "metrics aggregate across replicas" `Quick
        test_metrics_aggregate_across_replicas;
      Alcotest.test_case "barrier drains interleaved heads" `Quick
        test_barrier_drains_interleaved_heads;
      Alcotest.test_case "executor: conflict serialization" `Quick
        test_executor_conflict_serialization;
      Alcotest.test_case "executor: commits in log order" `Quick
        test_executor_commits_in_log_order;
      Alcotest.test_case "executor: rollback safety" `Quick
        test_executor_rollback_safety;
      Alcotest.test_case "executor: rollback determinism" `Quick
        test_executor_rollback_determinism;
      QCheck_alcotest.to_alcotest prop_executor_modes_agree;
      QCheck_alcotest.to_alcotest prop_executor_matches_model;
      Alcotest.test_case "executor: submit allocation" `Quick
        test_executor_submit_allocation;
      Alcotest.test_case "executor: read allocation" `Quick
        test_executor_read_allocation;
      Alcotest.test_case "executor: read waits for an overlapping write" `Quick
        test_executor_read_waits_for_write;
      Alcotest.test_case "executor: disjoint read starts on a free worker" `Quick
        test_executor_disjoint_read_starts_at_once;
      Alcotest.test_case "executor: overlapping write waits for a read" `Quick
        test_executor_write_waits_for_read;
      Alcotest.test_case "executor: read leaves the commit timeline alone" `Quick
        test_executor_read_leaves_commit_alone ]
