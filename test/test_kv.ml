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
    lease_backoff = 0.02;
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

let test_kv_replicas_agree () =
  let sys, _ = drive ~config:verify_config ~rate:500.0 () in
  let f0 = Kv.state_fingerprint_at sys 0 in
  for r = 1 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d fingerprint" r)
      f0
      (Kv.state_fingerprint_at sys r)
  done

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
    Alcotest.test_case "ycsb presets well-formed" `Quick
      test_ycsb_presets_wellformed;
    Alcotest.test_case "ycsb D latest-key" `Quick test_ycsb_d_uses_latest;
    Alcotest.test_case "slo percentiles" `Quick test_slo_percentiles ]
