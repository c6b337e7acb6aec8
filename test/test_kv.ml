(* Tests for the replicated KV service and its lease-based read tier. *)

module OL = Smr.Workload.Open_loop

let mk ?(config = Kv.default_config) ?(n_clients = 4) ?(seed = 7) () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create seed) in
  let sys = Kv.create net config ~n_clients in
  (engine, net, sys)

(* A small verify-sized deployment: tiny key space, empty initial tree,
   history recording on, short leases so expiry paths run. *)
let verify_config =
  { Kv.default_config with
    n_replicas = 3;
    n_workers = 2;
    leases = true;
    lease_dur = 0.05;
    read_timeout = 0.05;
    initial_keys = 0;
    key_range = 32;
    record_history = true }

let drive ?(seed = 7) ?(until = 1.0) ?(drain = 0.5) ~config ~rate () =
  let engine, net, sys = mk ~config ~seed () in
  let wl =
    OL.create
      ~ops:[ (OL.Read, 50); (OL.Update, 50) ]
      ~dist:(OL.Zipf 0.99) (Sim.Rng.create (seed + 1))
      ~key_range:config.Kv.key_range ~rate:(OL.Constant rate)
  in
  Kv.start_open sys wl ~until;
  Sim.Engine.run engine ~until:(until +. drain);
  ignore net;
  (sys, wl)

let test_kv_completes () =
  let config = { Kv.default_config with initial_keys = 1_000; key_range = 10_000 } in
  let sys, wl = drive ~config ~rate:2_000.0 ~until:0.5 () in
  Alcotest.(check bool) "arrivals generated" true (OL.generated wl > 500);
  Alcotest.(check bool) "commands executed" true (Kv.executed sys > 100);
  let classes = Kv.Slo.classes (Kv.slo sys) in
  Alcotest.(check bool) "update class measured" true
    (List.mem "update" classes);
  Alcotest.(check bool) "some read class measured" true
    (List.mem "read-local" classes || List.mem "read" classes);
  Alcotest.(check bool) "no stuck write responses" true
    (Kv.pending_writes sys = 0)

(* A read-only workload with every client proxy wrapped from outside,
   collecting the sizes of ordered ([KResp]) and lease-served
   ([KReadResp] ok) replies. *)
let read_only_run ~leases =
  let config =
    { Kv.default_config with leases; initial_keys = 1_000; key_range = 10_000 }
  in
  let engine, _net, sys = mk ~config () in
  let ordered = ref [] and local = ref [] in
  for c = 0 to 3 do
    let p = Kv.client_proc sys c in
    let prev = Simnet.handler_of p in
    Simnet.set_handler p (fun m ->
        (match m.Simnet.payload with
        | Kv.KResp _ -> ordered := m.Simnet.size :: !ordered
        | Kv.KReadResp { ok = true; _ } -> local := m.Simnet.size :: !local
        | _ -> ());
        prev m)
  done;
  let wl =
    OL.create ~ops:[ (OL.Read, 100) ] ~dist:(OL.Zipf 0.99)
      (Sim.Rng.create 11) ~key_range:10_000 ~rate:(OL.Constant 2_000.0)
  in
  Kv.start_open sys wl ~until:0.5;
  Sim.Engine.run engine ~until:1.0;
  (sys, !ordered, !local)

let test_kv_local_reads_served () =
  (* Read-only workload: leases stay valid, so reads are served locally. *)
  let sys, _, _ = read_only_run ~leases:true in
  Alcotest.(check bool) "local reads served" true
    (Kv.counter sys "kv_local_reads" > 500);
  Alcotest.(check bool) "grants flowed" true
    (Kv.counter sys "kv_lease_grants" > 0);
  (* Read-only: nothing ever invalidates a lease. *)
  Alcotest.(check int) "no invalidations" 0
    (Kv.counter sys "kv_lease_invalidations")

(* A lease-served point read replies with one value, exactly as many bytes
   as the same read answered through the ordered log — not the service's
   range-query page.  A leases-off run of the same workload gives the
   ordered-path reference size. *)
let test_kv_local_read_reply_size () =
  let _, ordered, _ = read_only_run ~leases:false in
  let point =
    match ordered with
    | s :: _ -> s
    | [] -> Alcotest.fail "no ordered-path read to compare with"
  in
  Alcotest.(check bool) "ordered point reads share one size" true
    (List.for_all (( = ) point) ordered);
  let sys, _, local = read_only_run ~leases:true in
  Alcotest.(check bool) "local reads served" true
    (Kv.counter sys "kv_local_reads" > 0);
  Alcotest.(check int) "every local reply seen"
    (Kv.counter sys "kv_local_reads") (List.length local);
  List.iter
    (fun size -> Alcotest.(check int) "local reply size" point size)
    local

let test_kv_writes_invalidate_leases () =
  let sys, _ = drive ~config:verify_config ~rate:500.0 ~until:0.5 () in
  Alcotest.(check bool) "invalidations happened" true
    (Kv.counter sys "kv_lease_invalidations" > 0);
  Alcotest.(check bool) "epochs bumped" true
    (Kv.lease_epoch sys ~replica:0 > 0)

let check_replicas_agree sys ~n =
  let f0 = Kv.state_fingerprint_at sys 0 in
  for r = 1 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d fingerprint" r)
      f0
      (Kv.state_fingerprint_at sys r)
  done

let test_kv_replicas_agree () =
  let sys, _ = drive ~config:verify_config ~rate:500.0 () in
  check_replicas_agree sys ~n:verify_config.Kv.n_replicas

let test_kv_linearizable () =
  let sys, _ = drive ~config:verify_config ~rate:300.0 () in
  Alcotest.(check bool) "history non-trivial" true
    (List.length (Kv.history sys) > 100);
  Alcotest.(check bool) "local reads occurred" true
    (Kv.counter sys "kv_local_reads" > 0);
  Alcotest.(check bool) "linearizable" true (Kv.check_history sys)

(* The deliberately-broken-lease regression: replica 2 keeps serving local
   reads after its lease expired or was invalidated, while a fault rule
   hides all other traffic from it (so its tree goes stale but reads and
   their responses still flow).  Conflicting writes commit and respond via
   the lease-expiry deadline; later local reads at the stale replica then
   return overwritten values — which the Kv linearizability checker must
   reject. *)
let test_kv_broken_lease_caught () =
  let config = verify_config in
  let engine, net, sys = mk ~config ~seed:13 () in
  Kv.Testing.break_leases sys;
  let inj = Fault.Injector.create net ~seed:13 in
  let stale_pid = Simnet.pid (Kv.replica_proc sys 2) in
  Fault.Injector.rule inj ~at:0.2 ~dur:10.0 ~drop:1.0
    ~applies:(fun m ~dst ->
      Simnet.pid dst = stale_pid
      && match m.Simnet.payload with Kv.KReadReq _ -> false | _ -> true)
    "isolate replica 2 (reads still reach it)";
  let wl =
    OL.create
      ~ops:[ (OL.Read, 50); (OL.Update, 50) ]
      ~dist:(OL.Zipf 0.99) (Sim.Rng.create 14) ~key_range:32
      ~rate:(OL.Constant 300.0)
  in
  Kv.start_open sys wl ~until:1.2;
  Sim.Engine.run engine ~until:1.7;
  Alcotest.(check bool) "writes responded via lease deadline" true
    (Kv.counter sys "kv_deadline_responses" > 0);
  Alcotest.(check bool) "stale local reads served" true
    (Kv.counter sys "kv_local_reads" > 0);
  Alcotest.(check bool) "checker rejects stale reads" false
    (Kv.check_history sys)

(* Same isolation without the broken flag: the stale replica's lease
   expires, it refuses local reads, clients fall back — linearizable. *)
let test_kv_lease_expiry_protects () =
  let config = verify_config in
  let engine, net, sys = mk ~config ~seed:13 () in
  let inj = Fault.Injector.create net ~seed:13 in
  let stale_pid = Simnet.pid (Kv.replica_proc sys 2) in
  Fault.Injector.rule inj ~at:0.2 ~dur:10.0 ~drop:1.0
    ~applies:(fun m ~dst ->
      Simnet.pid dst = stale_pid
      && match m.Simnet.payload with Kv.KReadReq _ -> false | _ -> true)
    "isolate replica 2 (reads still reach it)";
  let wl =
    OL.create
      ~ops:[ (OL.Read, 50); (OL.Update, 50) ]
      ~dist:(OL.Zipf 0.99) (Sim.Rng.create 14) ~key_range:32
      ~rate:(OL.Constant 300.0)
  in
  Kv.start_open sys wl ~until:1.2;
  Sim.Engine.run engine ~until:1.7;
  Alcotest.(check bool) "stale replica refused reads" true
    (Kv.counter sys "kv_local_nacks" > 0);
  Alcotest.(check bool) "linearizable" true (Kv.check_history sys)

(* --- read-only commands run once ------------------------------------------------ *)

let count_of sys cls = (Kv.Slo.row_of (Kv.slo sys) cls).Kv.Slo.count

(* Leases off, so every read is ordered.  A read changes no state and only
   its responder replies: it runs at one replica, a write at every one. *)
let test_kv_ordered_read_runs_once () =
  let config = { verify_config with leases = false; record_history = false } in
  let sys, _ = drive ~config ~rate:500.0 () in
  let reads = count_of sys "read" and writes = count_of sys "update" in
  Alcotest.(check bool) "reads and writes ran" true (reads > 100 && writes > 100);
  Alcotest.(check int) "every command completed" 0 (Kv.inflight_count sys);
  Alcotest.(check int) "nothing dropped" 0 (Kv.drops sys);
  Alcotest.(check int) "executed = replicas x writes + reads"
    ((config.Kv.n_replicas * writes) + reads)
    (Kv.executed sys);
  check_replicas_agree sys ~n:config.Kv.n_replicas

let test_kv_ordered_read_runs_once_linearizable () =
  let config = { verify_config with leases = false } in
  let sys, _ = drive ~config ~rate:300.0 () in
  Alcotest.(check bool) "ordered reads recorded" true (count_of sys "read" > 100);
  Alcotest.(check bool) "linearizable" true (Kv.check_history sys)

(* Read-only is the command's own property: an insert whose client
   declared no writes still changes state, so it must run everywhere. *)
let test_kv_undeclared_insert_runs_everywhere () =
  let config = { verify_config with leases = false; record_history = false } in
  let engine, _net, sys = mk ~config () in
  let n = 40 in
  for i = 0 to n - 1 do
    let at = 0.001 *. float_of_int (i + 1) in
    ignore
      (Sim.Engine.at engine ~time:at (fun () ->
           Kv.Testing.issue sys
             { OL.at;
               op = Smr.Btree_service.Insert { key = i mod 8; value = 1_000 + i };
               reads = Btree.Keyset.empty;
               writes = Btree.Keyset.empty;
               size = 64 }))
  done;
  Sim.Engine.run engine ~until:0.5;
  Alcotest.(check int) "every insert answered" n (count_of sys "update");
  Alcotest.(check int) "every replica ran every insert"
    (config.Kv.n_replicas * n) (Kv.executed sys);
  check_replicas_agree sys ~n:config.Kv.n_replicas

(* --- executor modes and open-loop accounting --------------------------------------- *)

(* The ordered path under both executor modes, leases off.  A hot 32-key
   read/update mix delivers conflicting commands together, so the
   optimistic executor rolls some back and the pessimistic one never does;
   either way the replicas converge, and speculative execution stays
   linearizable. *)
let test_kv_executor_modes () =
  List.iter
    (fun executor ->
      let optimistic = executor = Psmr.Executor.Optimistic in
      let config =
        { verify_config with leases = false; executor; record_history = optimistic }
      in
      let sys, _ = drive ~config ~rate:2_000.0 () in
      Alcotest.(check bool) "commands executed" true (Kv.executed sys > 500);
      check_replicas_agree sys ~n:config.Kv.n_replicas;
      if optimistic then begin
        Alcotest.(check bool)
          (Printf.sprintf "optimistic rolls back (%d)" (Kv.rollbacks sys))
          true (Kv.rollbacks sys > 0);
        Alcotest.(check bool) "linearizable" true (Kv.check_history sys)
      end
      else Alcotest.(check int) "pessimistic never rolls back" 0 (Kv.rollbacks sys))
    [ Psmr.Executor.Pessimistic; Psmr.Executor.Optimistic ]

(* A proposer window shrunk to 4 KB refuses arrivals mid-run: every arrival
   [Kv.start_open] consumes lands in exactly one of issued or drops (no
   discarded lookahead at the horizon, no double issue), and a dropped
   command never completes. *)
let test_kv_open_loop_drop_accounting () =
  let config =
    { Kv.default_config with
      leases = false;
      ring = { Ringpaxos.Mring.default_config with proposer_buffer = 4 * 1024 } }
  in
  let engine, _net, sys = mk ~config ~n_clients:2 () in
  let wl =
    OL.create (Sim.Rng.create 9) ~key_range:100_000 ~rate:(OL.Constant 40_000.0)
  in
  Kv.start_open sys wl ~until:0.4;
  Sim.Engine.run engine ~until:0.6;
  let drops = Kv.drops sys and issued = Kv.issued sys in
  Alcotest.(check bool)
    (Printf.sprintf "window overflow dropped arrivals (%d)" drops)
    true (drops > 0);
  Alcotest.(check int) "generated = issued + drops" (OL.generated wl) (issued + drops);
  let completed =
    List.fold_left (fun a (r : Kv.Slo.row) -> a + r.count) 0 (Kv.Slo.rows (Kv.slo sys))
  in
  Alcotest.(check bool) "completions bounded by issued" true (completed <= issued)

(* Lease reads run on the replicas' worker pools.  Served on the learner's
   single CPU instead, a read-only YCSB-C load at 120 kops/s saturates it:
   the lease-served tail grows without bound and reads time out. *)
let test_kv_lease_read_capacity () =
  let config = { Kv.default_config with n_workers = 2 } in
  let engine, _net, sys = mk ~config () in
  let wl =
    Kv.Ycsb.workload Kv.Ycsb.C (Sim.Rng.create 8) ~rate:(OL.Constant 120_000.0)
  in
  Kv.start_open sys wl ~until:0.3;
  Sim.Engine.run engine ~until:0.6;
  let local = Kv.Slo.row_of (Kv.slo sys) "read-local" in
  Alcotest.(check bool) "lease reads served" true (local.Kv.Slo.count > 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "read-local p99 %.3f ms <= 1 ms" local.Kv.Slo.p99_ms)
    true (local.Kv.Slo.p99_ms <= 1.0);
  Alcotest.(check int) "no local-read timeouts" 0 (Kv.counter sys "kv_read_timeouts")

(* --- point-op client ------------------------------------------------------------- *)

let mk_env ?(config = Kv.default_config) seed =
  let env = Hpsmr.Env.create ~seed () in
  (env, Kv.create env.Hpsmr.Env.net config ~n_clients:1)

let test_kv_put_get () =
  let env, kv = mk_env 2 in
  let got = ref None and completed = ref 0 in
  Kv.put kv ~key:7 ~value:49 ~k:(fun _ ->
      incr completed;
      Kv.get kv ~key:7 ~k:(fun v ->
          incr completed;
          got := v));
  Hpsmr.Env.run env ~for_:0.5;
  Alcotest.(check (option int)) "read back" (Some 49) !got;
  Alcotest.(check int) "two commands completed" 2 !completed

let test_kv_get_missing () =
  let env, kv = mk_env ~config:{ Kv.default_config with initial_keys = 0 } 3 in
  let got = ref (Some 1) in
  Kv.get kv ~key:12345 ~k:(fun v -> got := v);
  Hpsmr.Env.run env ~for_:0.5;
  Alcotest.(check (option int)) "missing key" None !got

let test_kv_survives_coordinator_crash () =
  let env, kv = mk_env 4 in
  for i = 1 to 20 do
    Kv.put kv ~key:i ~value:i ~k:ignore
  done;
  Hpsmr.Env.run env ~for_:0.3;
  Kv.kill_coordinator kv;
  Hpsmr.Env.run env ~for_:1.5;
  let got = ref None in
  Kv.put kv ~key:99 ~value:990 ~k:(fun _ ->
      Kv.get kv ~key:99 ~k:(fun v -> got := v));
  Hpsmr.Env.run env ~for_:2.0;
  Alcotest.(check (option int)) "post-failover write+read" (Some 990) !got

let test_kv_point_determinism () =
  let run () =
    let env, kv = mk_env 5 in
    let trace = ref [] in
    for i = 1 to 10 do
      Kv.put kv ~key:i ~value:i ~k:(fun _ ->
          trace := (i, Hpsmr.Env.now env) :: !trace)
    done;
    Hpsmr.Env.run env ~for_:1.0;
    !trace
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, identical completion trace" true (a = b && a <> [])

(* Point ops ride beside an open-loop load: while a light YCSB-C load is
   served by the lease tier, an ordered put and then a get see each other. *)
let test_kv_point_ops_under_load () =
  let engine, _net, sys = mk () in
  let wl =
    Kv.Ycsb.workload Kv.Ycsb.C (Sim.Rng.create 8) ~rate:(OL.Constant 2_000.0)
  in
  Kv.start_open sys wl ~until:0.6;
  let got = ref None in
  ignore
    (Sim.Engine.at engine ~time:0.3 (fun () ->
         Kv.put sys ~key:42 ~value:4_242 ~k:(fun _ ->
             Kv.get sys ~key:42 ~k:(fun v -> got := v))));
  Sim.Engine.run engine ~until:0.8;
  Alcotest.(check bool) "lease reads served" true
    (Kv.counter sys "kv_local_reads" > 100);
  Alcotest.(check (option int)) "get sees the put" (Some 4_242) !got

(* --- revocation confirmations ----------------------------------------------------- *)

(* A replica confirms each revocation of its own lease once, to each other
   replica, whatever number of writes the revoked lease covered: at most
   (n - 1) confirmations per invalidation in the log.  Acks per write, or
   per holder per write, would grow with the write rate instead.  Every
   deferred response still drains. *)
let test_kv_confirmations_per_revocation () =
  let run leases =
    let engine, _net, sys = mk ~config:{ Kv.default_config with leases } () in
    let wl = Kv.Ycsb.workload Kv.Ycsb.A (Sim.Rng.create 8) ~rate:(OL.Constant 48_000.0) in
    Kv.start_open sys wl ~until:0.3;
    Sim.Engine.run engine ~until:0.5;
    Alcotest.(check bool) "non-trivial run" true (Kv.executed sys > 10_000);
    Alcotest.(check int) "every write answered" 0 (Kv.pending_writes sys);
    sys
  in
  let off = run false in
  Alcotest.(check int) "no confirmations without leases" 0 (Kv.counter off "kv_wacks");
  let on = run true in
  let wacks = Kv.counter on "kv_wacks" in
  let revocations = Kv.counter on "kv_lease_invalidations" in
  let bound = (Kv.default_config.n_replicas - 1) * revocations in
  Alcotest.(check bool) (Printf.sprintf "%d confirmations sent" wacks) true (wacks > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d confirmations, at most %d for %d revocations" wacks bound revocations)
    true (wacks <= bound)

(* A revoked lease its holder has not yet applied.  Replica 2's ring
   traffic lags 20 ms behind (its read requests do not), and only its
   grant notices reach the clients, so local reads go to it.  Write w1
   revokes every lease; write w2, right behind it, finds replica 2's entry
   already revoked.  Replica 2 still serves under its old lease until it
   applies w1, so w2's response must wait for replica 2 to confirm that
   revocation: a local read of w2's key sent after w2 is answered must not
   return the value from before w2. *)
let test_kv_unapplied_revocation_defers () =
  let config = verify_config in
  let lag = 2 and k1 = 3 and k2 = 5 in
  let broadcast = ref [] in
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create 7) in
  let sys =
    Kv.create net config ~n_clients:1 ~on_broadcast:(fun ~uid ->
        broadcast := uid :: !broadcast)
  in
  let inj = Fault.Injector.create net ~seed:7 in
  let lag_pid = Simnet.pid (Kv.replica_proc sys lag) in
  Fault.Injector.custom inj ~at:0.0 ~dur:10.0
    ~decide:(fun m ~dst ->
      match m.Simnet.payload with
      | Kv.KReadReq _ -> Simnet.Deliver
      | Kv.KLease { replica } when replica <> lag -> Simnet.Drop
      | _ -> if Simnet.pid dst = lag_pid then Simnet.Delay 0.02 else Simnet.Deliver)
    "lag replica 2, announce only its leases";
  (* Leases only: no arrival falls before the horizon. *)
  Kv.start_open sys
    (OL.create (Sim.Rng.create 8) ~key_range:config.Kv.key_range ~rate:(OL.Constant 0.0))
    ~until:1.0;
  let arrival op ~key ~writes =
    { OL.at = Simnet.now net; op; reads = Btree.Keyset.singleton key; writes; size = 64 }
  in
  let write key value =
    Kv.Testing.issue sys
      (arrival (Smr.Btree_service.Insert { key; value }) ~key
         ~writes:(Btree.Keyset.singleton key))
  in
  let w2_uid = ref (-1) and read_sent = ref false in
  let p = Kv.client_proc sys 0 in
  let prev = Simnet.handler_of p in
  Simnet.set_handler p (fun m ->
      prev m;
      match m.Simnet.payload with
      | Kv.KResp { uid; _ } when uid = !w2_uid && not !read_sent ->
          read_sent := true;
          ignore
            (Simnet.after net 1e-3 (fun () ->
                 Kv.Testing.issue sys
                   (arrival (Smr.Btree_service.Query { lo = k2; hi = k2 }) ~key:k2
                      ~writes:Btree.Keyset.empty)))
      | _ -> ());
  ignore
    (Sim.Engine.at engine ~time:0.3 (fun () ->
         write k1 101;
         write k2 102;
         w2_uid := List.hd !broadcast));
  Sim.Engine.run engine ~until:1.5;
  Alcotest.(check bool) "w2's responder is not the lagging replica" true
    (Paxos.Value.uid_seq !w2_uid mod config.Kv.n_replicas <> lag);
  Alcotest.(check bool) "read of k2 sent after w2's answer" true !read_sent;
  Alcotest.(check bool) "the lagging replica was asked" true
    (Kv.counter sys "kv_local_reads" + Kv.counter sys "kv_local_nacks" > 0);
  Alcotest.(check int) "every write answered" 0 (Kv.pending_writes sys);
  Alcotest.(check bool) "linearizable" true (Kv.check_history sys)

(* --- golden digest ----------------------------------------------------------------- *)

(* A seeded YCSB-A run with leases on, at the bench's 48 kops/s: SLO rows
   (floats printed exactly), counters, executed commands and every
   replica's fingerprint.  Pins the open-loop path end to end. *)
let test_kv_ycsb_a_golden () =
  let engine, _net, sys = mk () in
  let wl =
    Kv.Ycsb.workload Kv.Ycsb.A (Sim.Rng.create 8) ~rate:(OL.Constant 48_000.0)
  in
  Kv.start_open sys wl ~until:0.3;
  Sim.Engine.run engine ~until:0.5;
  let rows =
    List.map
      (fun (r : Kv.Slo.row) ->
        Printf.sprintf "%s %d %h %h %h %h %h" r.cls r.count r.mean_ms r.p50_ms
          r.p99_ms r.p999_ms r.max_ms)
      (Kv.Slo.rows (Kv.slo sys))
  in
  let ctrs = List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Kv.counters sys) in
  let fps =
    List.init Kv.default_config.n_replicas (fun r ->
        Printf.sprintf "fp%d=%x" r (Kv.state_fingerprint_at sys r))
  in
  let s =
    String.concat "\n"
      (rows @ ctrs @ (Printf.sprintf "executed=%d" (Kv.executed sys) :: fps))
  in
  Alcotest.(check bool) "non-trivial run" true (Kv.executed sys > 10_000);
  Alcotest.(check string) "kv run digest" "97ba4b8c31ca89bc8214bd9cf2bff5a1"
    (Digest.to_hex (Digest.string s))

(* Replica-side minor words per ordered command: a 50/50 read/update run
   over a fully populated key space (every update overwrites), leases off,
   so each command is ordered, executed and answered by its responder.
   [on_deliver] stamps the words at the start of each delivery; the gap
   between two deliveries at one replica in one instant is what the first
   one cost, from its delivery to its reply being scheduled.  The reading
   averages all such gaps. *)
let replica_words_per_command () =
  let n = 200 in
  let config =
    { Kv.default_config with leases = false; initial_keys = n; key_range = n }
  in
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create 7) in
  let last_t = Array.make config.Kv.n_replicas (-1.0) in
  let last_w = Array.make config.Kv.n_replicas 0.0 in
  let gaps = ref 0 and words = ref 0.0 in
  let on_deliver ~replica ~uid:_ =
    let w = Gc.minor_words () in
    let now = Simnet.now net in
    if last_t.(replica) = now then begin
      incr gaps;
      words := !words +. (w -. last_w.(replica))
    end;
    last_t.(replica) <- now;
    last_w.(replica) <- Gc.minor_words ()
  in
  let sys = Kv.create ~on_deliver net config ~n_clients:4 in
  let wl =
    OL.create
      ~ops:[ (OL.Read, 50); (OL.Update, 50) ]
      ~dist:(OL.Zipf 0.99) (Sim.Rng.create 8) ~key_range:n
      ~rate:(OL.Constant 20_000.0)
  in
  Kv.start_open sys wl ~until:0.5;
  Sim.Engine.run engine ~until:0.7;
  (!gaps, !words /. float_of_int (Stdlib.max 1 !gaps))

(* What is left per command: the reply payload, the tree's [Some] of the
   prior value, the executor's boxed times and the reply's time.  The
   service's outcome record, boxed cost and undo closure, and a closure
   per scheduled reply, read 15.3 words here; this reads 6.7. *)
let test_kv_replica_allocation () =
  let gaps, per = replica_words_per_command () in
  Alcotest.(check bool) "many same-instant deliveries" true (gaps > 5_000);
  Alcotest.(check bool)
    (Printf.sprintf "replica allocates %.2f words per ordered command (<= 7.3)" per)
    true (per <= 7.3)

(* A replica killed while it applies a write sends nothing afterwards: not
   the reply it owes as the write's responder, and not the confirmation
   of the revocation of its own lease.  [Simnet.kill] leaves timers to the
   protocol, so both sends check liveness when they fire. *)
let killed_during_write ~leases =
  let config =
    { Kv.default_config with leases; initial_keys = 0; key_range = 100 }
  in
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create 7) in
  let put_uid = ref (-1) and victim = ref (-1) in
  let sys = ref None in
  let on_broadcast ~uid = if Simnet.now net >= 0.05 && !put_uid < 0 then put_uid := uid in
  let on_deliver ~replica ~uid =
    if uid = !put_uid && !victim < 0 then begin
      (* With leases, kill the first replica to apply the write (it revokes
         its own lease); without, the write's responder. *)
      let target = Paxos.Value.uid_seq uid mod config.Kv.n_replicas in
      if leases || replica = target then begin
        victim := replica;
        Simnet.kill net (Kv.replica_proc (Option.get !sys) replica)
      end
    end
  in
  let kv = Kv.create ~on_broadcast ~on_deliver net config ~n_clients:1 in
  sys := Some kv;
  (* Everything the victim sends after its death, wherever it lands. *)
  let from_victim = ref [] in
  let tap p =
    let prev = Simnet.handler_of p in
    Simnet.set_handler p (fun m ->
        if !victim >= 0 && m.Simnet.src = Simnet.pid (Kv.replica_proc kv !victim) then
          from_victim := m.Simnet.payload :: !from_victim;
        prev m)
  in
  tap (Kv.client_proc kv 0);
  for r = 0 to config.Kv.n_replicas - 1 do
    tap (Kv.replica_proc kv r)
  done;
  (* Leases are granted while an open-loop run lasts; this one's first
     arrival falls past its end, so it issues nothing else. *)
  if leases then
    Kv.start_open kv
      (OL.create ~ops:[ (OL.Read, 100) ] (Sim.Rng.create 8) ~key_range:100
         ~rate:(OL.Constant 1.0))
      ~until:0.2;
  let answered = ref false in
  ignore
    (Sim.Engine.at engine ~time:0.05 (fun () ->
         Kv.put kv ~key:1 ~value:2 ~k:(fun _ -> answered := true)));
  Sim.Engine.run engine ~until:1.5;
  (kv, !victim, !from_victim, !answered)

let test_kv_killed_responder_stays_silent () =
  let kv, victim, sent, answered = killed_during_write ~leases:false in
  Alcotest.(check bool) "the responder was killed" true (victim >= 0);
  Alcotest.(check bool) "it is dead" false (Simnet.is_alive (Kv.replica_proc kv victim));
  Alcotest.(check bool) "no reply from the dead responder" true
    (not (List.exists (function Kv.KResp _ -> true | _ -> false) sent));
  Alcotest.(check bool) "the put is not answered" false answered

let test_kv_killed_holder_sends_no_confirmation () =
  let kv, victim, sent, _ = killed_during_write ~leases:true in
  Alcotest.(check bool) "a lease holder was killed" true (victim >= 0);
  Alcotest.(check bool) "it had a lease to revoke" true
    (Kv.lease_epoch kv ~replica:victim > 0);
  Alcotest.(check bool) "no confirmation from the dead holder" true
    (not (List.exists (function Kv.KWAck _ -> true | _ -> false) sent))

let test_ycsb_presets_wellformed () =
  List.iter
    (fun p ->
      let ops = Kv.Ycsb.ops p in
      let total = List.fold_left (fun a (_, w) -> a + w) 0 ops in
      Alcotest.(check int) (Kv.Ycsb.name p ^ " weights") 100 total;
      Alcotest.(check bool)
        (Kv.Ycsb.name p ^ " roundtrips")
        true
        (Kv.Ycsb.of_name (Kv.Ycsb.name p) = Some p))
    Kv.Ycsb.all

let test_ycsb_d_uses_latest () =
  Alcotest.(check bool) "D is latest-key" true
    (match Kv.Ycsb.dist Kv.Ycsb.D with
    | Smr.Workload.Open_loop.Latest _ -> true
    | _ -> false)

let test_slo_percentiles () =
  let slo = Kv.Slo.create () in
  for i = 1 to 1000 do
    Kv.Slo.add slo ~cls:"read" (float_of_int i *. 1e-3)
  done;
  let r = Kv.Slo.row_of slo "read" in
  Alcotest.(check int) "count" 1000 r.Kv.Slo.count;
  Alcotest.(check bool) "p50 ~ 500ms" true
    (r.Kv.Slo.p50_ms > 450.0 && r.Kv.Slo.p50_ms < 550.0);
  Alcotest.(check bool) "p99 ~ 990ms" true
    (r.Kv.Slo.p99_ms > 950.0 && r.Kv.Slo.p99_ms <= 1000.0);
  Alcotest.(check bool) "p999 >= p99" true (r.Kv.Slo.p999_ms >= r.Kv.Slo.p99_ms)

let suite =
  [ Alcotest.test_case "kv ycsb-a end to end" `Quick test_kv_completes;
    Alcotest.test_case "kv leases serve local reads" `Quick
      test_kv_local_reads_served;
    Alcotest.test_case "kv local read replies with the value" `Quick
      test_kv_local_read_reply_size;
    Alcotest.test_case "kv writes invalidate leases" `Quick
      test_kv_writes_invalidate_leases;
    Alcotest.test_case "kv replicas agree" `Quick test_kv_replicas_agree;
    Alcotest.test_case "kv linearizable with leases" `Quick test_kv_linearizable;
    Alcotest.test_case "kv broken lease caught by checker" `Quick
      test_kv_broken_lease_caught;
    Alcotest.test_case "kv lease expiry protects reads" `Quick
      test_kv_lease_expiry_protects;
    Alcotest.test_case "kv ordered read runs once" `Quick
      test_kv_ordered_read_runs_once;
    Alcotest.test_case "kv ordered read runs once, linearizable" `Quick
      test_kv_ordered_read_runs_once_linearizable;
    Alcotest.test_case "kv undeclared insert runs everywhere" `Quick
      test_kv_undeclared_insert_runs_everywhere;
    Alcotest.test_case "kv executor modes end to end" `Quick test_kv_executor_modes;
    Alcotest.test_case "kv open-loop drop accounting" `Quick
      test_kv_open_loop_drop_accounting;
    Alcotest.test_case "kv lease reads on the worker pool at 120 kops/s" `Quick
      test_kv_lease_read_capacity;
    Alcotest.test_case "kv put/get" `Quick test_kv_put_get;
    Alcotest.test_case "kv missing key" `Quick test_kv_get_missing;
    Alcotest.test_case "kv survives coordinator crash" `Quick
      test_kv_survives_coordinator_crash;
    Alcotest.test_case "kv deterministic runs" `Quick test_kv_point_determinism;
    Alcotest.test_case "kv point ops beside a lease-served load" `Quick
      test_kv_point_ops_under_load;
    Alcotest.test_case "kv confirms each lease revocation once per replica" `Quick
      test_kv_confirmations_per_revocation;
    Alcotest.test_case "kv write waits for an unapplied revocation" `Quick
      test_kv_unapplied_revocation_defers;
    Alcotest.test_case "kv ycsb-a run matches golden digest" `Quick
      test_kv_ycsb_a_golden;
    Alcotest.test_case "kv replica allocation per ordered command" `Quick
      test_kv_replica_allocation;
    Alcotest.test_case "kv killed responder sends no reply" `Quick
      test_kv_killed_responder_stays_silent;
    Alcotest.test_case "kv killed lease holder sends no confirmation" `Quick
      test_kv_killed_holder_sends_no_confirmation;
    Alcotest.test_case "ycsb presets well-formed" `Quick
      test_ycsb_presets_wellformed;
    Alcotest.test_case "ycsb D latest-key" `Quick test_ycsb_d_uses_latest;
    Alcotest.test_case "slo percentiles" `Quick test_slo_percentiles ]
