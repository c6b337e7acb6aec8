(* Tests for the SMR layer: replicated B+-tree over M-Ring Paxos with
   speculation and state partitioning (Chapter 4), the client-server
   baseline, and the linearizability checker. *)

module BS = Smr.Btree_service
module W = Smr.Workload
module L = Smr.Linearizability

let make_env seed =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create seed) in
  (engine, net)

(* Populate partition [p] of [n_parts] with every key it owns. *)
let dense_service ~key_range ~n_parts p =
  let bs = BS.create () in
  let plo = (p * (key_range + 1) / n_parts) + if p = 0 then 1 else 0 in
  let phi = ((p + 1) * (key_range + 1) / n_parts) - 1 in
  for k = Stdlib.max 1 plo to phi do
    ignore (Btree.insert bs.tree k k)
  done;
  bs

let key_range = 20_000

let make_system ?(partitions = 1) ?(replicas = 2) ?(speculative = false) ?(clients = 4)
    ?(kind = W.Ins_del_single) ?(cross_pct = 0) net =
  let cfg =
    { Smr.System.mring = { Ringpaxos.Mring.default_config with partitions };
      replicas_per_partition = replicas;
      speculative }
  in
  let services = Array.init (partitions * replicas) (fun l ->
      dense_service ~key_range ~n_parts:partitions (l / replicas))
  in
  let wl =
    W.create ~cross_pct ~query_span:100 (Sim.Rng.create 5) kind ~key_range
      ~n_partitions:partitions
  in
  let sys =
    Smr.System.create net cfg
      ~services:(fun l -> services.(l).service)
      ~n_clients:clients
      ~gen:(fun _ -> W.next wl)
  in
  (sys, services)

let test_smr_executes_and_responds () =
  let engine, net = make_env 71 in
  let sys, _ = make_system net in
  Smr.System.start sys;
  Sim.Engine.run engine ~until:0.5;
  let m = Smr.System.metrics sys in
  Alcotest.(check bool) "commands complete" true (Smr.Metrics.completed m > 50);
  Alcotest.(check bool) "latency sane (<20ms)" true (Smr.Metrics.lat_mean_ms m < 20.0)

let test_smr_replicas_identical () =
  let engine, net = make_env 72 in
  let sys, services = make_system ~replicas:3 ~clients:8 net in
  Smr.System.start sys;
  Sim.Engine.run engine ~until:0.5;
  (* Stop clients by running past the horizon and comparing state. *)
  let f0 = BS.fingerprint services.(0) in
  Alcotest.(check bool) "work was done" true (Smr.System.executed sys ~learner:0 > 50);
  Alcotest.(check int) "replica 1 state = replica 0" f0 (BS.fingerprint services.(1));
  Alcotest.(check int) "replica 2 state = replica 0" f0 (BS.fingerprint services.(2));
  Btree.check services.(0).tree

let test_smr_queries_designated_responder () =
  let engine, net = make_env 73 in
  let sys, _ = make_system ~kind:W.Queries ~replicas:2 net in
  Smr.System.start sys;
  Sim.Engine.run engine ~until:0.5;
  (* Only one replica executes each query: total executions across the two
     replicas should be about the number of completed commands, not 2x. *)
  let m = Smr.System.metrics sys in
  let total = Smr.System.executed sys ~learner:0 + Smr.System.executed sys ~learner:1 in
  let completed = Smr.Metrics.completed m in
  Alcotest.(check bool) "completed > 0" true (completed > 0);
  Alcotest.(check bool) "queries not executed by all replicas" true
    (total < completed + (completed / 2) + 8)

let test_smr_updates_executed_by_all () =
  let engine, net = make_env 74 in
  let sys, _ = make_system ~kind:W.Ins_del_single ~replicas:2 net in
  Smr.System.start sys;
  Sim.Engine.run engine ~until:0.3;
  let m = Smr.System.metrics sys in
  let completed = Smr.Metrics.completed m in
  Alcotest.(check bool) "both replicas executed every update" true
    (Smr.System.executed sys ~learner:0 >= completed
    && Smr.System.executed sys ~learner:1 >= completed)

let test_smr_speculation_reduces_latency () =
  let run speculative =
    let engine, net = make_env 75 in
    let sys, _ = make_system ~kind:W.Queries ~speculative ~clients:2 net in
    Smr.System.start sys;
    Sim.Engine.run engine ~until:0.6;
    let m = Smr.System.metrics sys in
    (Smr.Metrics.lat_mean_ms m, Smr.Metrics.completed m)
  in
  let lat_plain, n_plain = run false in
  let lat_spec, n_spec = run true in
  Alcotest.(check bool) "both complete work" true (n_plain > 20 && n_spec > 20);
  Alcotest.(check bool)
    (Printf.sprintf "speculation not slower (%.3f vs %.3f ms)" lat_spec lat_plain)
    true
    (lat_spec <= lat_plain *. 1.02)

let test_smr_speculation_state_correct () =
  let engine, net = make_env 76 in
  let sys, services = make_system ~kind:W.Ins_del_batch ~speculative:true ~clients:4 net in
  Smr.System.start sys;
  Sim.Engine.run engine ~until:0.5;
  Alcotest.(check int) "speculative replicas agree"
    (BS.fingerprint services.(0))
    (BS.fingerprint services.(1));
  Btree.check services.(0).tree

let test_smr_partitioning_splits_load () =
  let engine, net = make_env 77 in
  let sys, _ =
    make_system ~partitions:2 ~replicas:2 ~kind:W.Ins_del_single ~clients:8 net
  in
  Smr.System.start sys;
  Sim.Engine.run engine ~until:0.5;
  let per_learner = List.init 4 (fun l -> Smr.System.executed sys ~learner:l) in
  (* Partition 0 replicas execute only their keys, likewise partition 1. *)
  let m = Smr.System.metrics sys in
  let completed = Smr.Metrics.completed m in
  let total = List.fold_left ( + ) 0 per_learner in
  Alcotest.(check bool) "completed" true (completed > 50);
  (* Each command executed by the 2 replicas of exactly one partition. *)
  Alcotest.(check bool)
    (Printf.sprintf "total %d ~ 2x completed %d" total completed)
    true
    (total <= (2 * completed) + 16 && total >= 2 * (completed - 16))

let test_smr_cross_partition_query_merged () =
  let engine, net = make_env 78 in
  let sys, _ =
    make_system ~partitions:2 ~replicas:2 ~kind:W.Queries ~cross_pct:100 ~clients:4 net
  in
  Smr.System.start sys;
  Sim.Engine.run engine ~until:0.5;
  let m = Smr.System.metrics sys in
  Alcotest.(check bool) "cross-partition queries complete" true
    (Smr.Metrics.completed m > 20)

let test_cs_baseline_faster_than_smr () =
  (* Fig. 4.1/4.3: the non-replicated server has lower latency. *)
  let engine, net = make_env 79 in
  let wl = W.create (Sim.Rng.create 5) W.Queries ~key_range ~n_partitions:1 in
  let bs = dense_service ~key_range ~n_parts:1 0 in
  let cs =
    Smr.Cs.create net ~n_threads:1 ~service:bs.service ~n_clients:4
      ~gen:(fun _ -> W.next wl)
  in
  Smr.Cs.start cs;
  Sim.Engine.run engine ~until:0.5;
  let cs_lat = Smr.Metrics.lat_mean_ms (Smr.Cs.metrics cs) in
  let engine2, net2 = make_env 79 in
  let sys, _ = make_system ~kind:W.Queries ~clients:4 net2 in
  Smr.System.start sys;
  Sim.Engine.run engine2 ~until:0.5;
  let smr_lat = Smr.Metrics.lat_mean_ms (Smr.System.metrics sys) in
  Alcotest.(check bool) "cs completed" true (Smr.Metrics.completed (Smr.Cs.metrics cs) > 50);
  Alcotest.(check bool)
    (Printf.sprintf "CS latency (%.3f) < SMR latency (%.3f)" cs_lat smr_lat)
    true (cs_lat < smr_lat)

let test_workload_partition_of () =
  Alcotest.(check int) "low key" 0 (W.partition_of ~key_range:1000 ~n_partitions:2 10);
  Alcotest.(check int) "high key" 1 (W.partition_of ~key_range:1000 ~n_partitions:2 900);
  Alcotest.(check int) "clamped" 3 (W.partition_of ~key_range:1000 ~n_partitions:4 1000)

let test_workload_cross_partition () =
  let wl =
    W.create ~cross_pct:100 ~query_span:100 (Sim.Rng.create 3) W.Queries ~key_range:10_000
      ~n_partitions:2
  in
  let all_cross =
    List.init 50 (fun _ -> W.next wl) |> List.for_all (fun c -> List.length c.W.parts = 2)
  in
  Alcotest.(check bool) "100% cross-partition" true all_cross;
  let wl0 =
    W.create ~cross_pct:0 ~query_span:100 (Sim.Rng.create 3) W.Queries ~key_range:10_000
      ~n_partitions:2
  in
  let none_cross =
    List.init 50 (fun _ -> W.next wl0) |> List.for_all (fun c -> List.length c.W.parts = 1)
  in
  Alcotest.(check bool) "0% cross-partition" true none_cross

(* --- linearizability checker ----------------------------------------------- *)

let test_lin_accepts_sequential () =
  let h =
    [ { L.kind = `Write 1; inv = 0.0; res = 1.0 };
      { L.kind = `Read (Some 1); inv = 2.0; res = 3.0 } ]
  in
  Alcotest.(check bool) "sequential history ok" true (L.check ~init:None h)

let test_lin_rejects_stale_read () =
  (* Fig 2.1(a): read overlapping nothing returns a stale value after a
     write completed. *)
  let h =
    [ { L.kind = `Write 20; inv = 0.0; res = 1.0 };
      { L.kind = `Read (Some 10); inv = 2.0; res = 3.0 } ]
  in
  Alcotest.(check bool) "stale read rejected" false (L.check ~init:(Some 10) h)

let test_lin_accepts_concurrent_reorder () =
  (* Fig 2.1(b): the read overlaps the write, so either order is fine. *)
  let h =
    [ { L.kind = `Write 20; inv = 0.0; res = 2.0 };
      { L.kind = `Read (Some 10); inv = 0.5; res = 1.0 };
      { L.kind = `Read (Some 20); inv = 2.5; res = 3.0 } ]
  in
  Alcotest.(check bool) "concurrent reorder ok" true (L.check ~init:(Some 10) h)

let test_seq_consistent_but_not_linearizable () =
  (* Sequential consistency permits reading the old value even after the
     write responded, if issued by another process. *)
  let writer = [ { L.kind = `Write 20; inv = 0.0; res = 1.0 } ] in
  let reader = [ { L.kind = `Read (Some 10); inv = 2.0; res = 3.0 } ] in
  Alcotest.(check bool) "not linearizable" false
    (L.check ~init:(Some 10) (writer @ reader));
  Alcotest.(check bool) "but sequentially consistent" true
    (L.sequentially_consistent ~init:(Some 10) [ writer; reader ])

let test_smr_history_linearizable () =
  (* End to end: run a small replicated register through the SMR system and
     check the observed history. *)
  let engine, net = make_env 80 in
  let value = ref None in
  let service =
    { Smr.Service.execute =
        (fun op ->
          match op with
          | BS.Insert { key = _; value = v } ->
              value := Some v;
              { resp_size = 64; cost = 1.0e-5; undo = None }
          | BS.Query _ ->
              let observed = match !value with Some v -> v | None -> -1 in
              { resp_size = 64 + observed; cost = 1.0e-5; undo = None }
          | _ -> { resp_size = 64; cost = 0.0; undo = None });
      rollback_cost = 0.0 }
  in
  (* Intercept executions to build the history: wrap execute. *)
  let history = ref [] in
  let wrapped l =
    ignore l;
    { service with
      Smr.Service.execute =
        (fun op ->
          let o = service.Smr.Service.execute op in
          o) }
  in
  let ops = [| BS.Insert { key = 1; value = 42 }; BS.Query { lo = 1; hi = 1 } |] in
  let count = ref 0 in
  let cfg = { Smr.System.default_config with replicas_per_partition = 1 } in
  let sys =
    Smr.System.create net cfg
      ~services:(fun l -> wrapped l)
      ~n_clients:2
      ~gen:(fun client ->
        incr count;
        { W.op = ops.(client mod 2); parts = [ 0 ]; size = 128 })
  in
  ignore history;
  Smr.System.start sys;
  Sim.Engine.run engine ~until:0.2;
  Alcotest.(check bool) "register SMR runs" true
    (Smr.Metrics.completed (Smr.System.metrics sys) > 10)

let suite =
  [ Alcotest.test_case "smr executes and responds" `Quick test_smr_executes_and_responds;
    Alcotest.test_case "replicas identical state" `Quick test_smr_replicas_identical;
    Alcotest.test_case "queries: designated responder" `Quick
      test_smr_queries_designated_responder;
    Alcotest.test_case "updates: executed by all" `Quick test_smr_updates_executed_by_all;
    Alcotest.test_case "speculation reduces latency" `Quick
      test_smr_speculation_reduces_latency;
    Alcotest.test_case "speculation keeps state correct" `Quick
      test_smr_speculation_state_correct;
    Alcotest.test_case "partitioning splits load" `Quick test_smr_partitioning_splits_load;
    Alcotest.test_case "cross-partition merge" `Quick test_smr_cross_partition_query_merged;
    Alcotest.test_case "CS latency < SMR latency" `Quick test_cs_baseline_faster_than_smr;
    Alcotest.test_case "workload partition_of" `Quick test_workload_partition_of;
    Alcotest.test_case "workload cross-partition control" `Quick test_workload_cross_partition;
    Alcotest.test_case "lin: sequential ok" `Quick test_lin_accepts_sequential;
    Alcotest.test_case "lin: stale read rejected" `Quick test_lin_rejects_stale_read;
    Alcotest.test_case "lin: concurrent reorder" `Quick test_lin_accepts_concurrent_reorder;
    Alcotest.test_case "seq-consistent vs linearizable (Fig 2.1)" `Quick
      test_seq_consistent_but_not_linearizable;
    Alcotest.test_case "register SMR end-to-end" `Quick test_smr_history_linearizable ]

let test_batch_undo_restores_tree () =
  let bs = BS.create () in
  for k = 1 to 100 do
    ignore (Btree.insert bs.tree k k)
  done;
  let before = BS.fingerprint bs in
  let outcome =
    bs.service.execute
      (BS.Batch
         [ BS.Insert { key = 500; value = 5 };
           BS.Delete { key = 50 };
           BS.Insert { key = 50; value = 999 };
           BS.Delete { key = 501 } ])
  in
  Alcotest.(check bool) "state changed" true (BS.fingerprint bs <> before);
  (match outcome.undo with Some u -> u () | None -> Alcotest.fail "batch must be undoable");
  Alcotest.(check int) "undo restores the exact tree" before (BS.fingerprint bs);
  Btree.check bs.tree

let test_workload_batch_single_partition () =
  let wl = W.create (Sim.Rng.create 9) W.Ins_del_batch ~key_range:10_000 ~n_partitions:4 in
  for _ = 1 to 50 do
    let c = W.next wl in
    (match c.op with
    | BS.Batch ops ->
        Alcotest.(check int) "seven updates" 7 (List.length ops);
        let parts =
          List.map
            (fun op ->
              match op with
              | BS.Insert { key; _ } | BS.Delete { key } ->
                  W.partition_of ~key_range:10_000 ~n_partitions:4 key
              | _ -> -1)
            ops
        in
        Alcotest.(check int) "all in the command's partition" 1
          (List.length (List.sort_uniq compare parts));
        Alcotest.(check (list int)) "matches declared parts"
          (List.sort_uniq compare parts) c.parts
    | _ -> Alcotest.fail "expected a batch")
  done

let suite =
  suite
  @ [ Alcotest.test_case "batch undo restores tree" `Quick test_batch_undo_restores_tree;
      Alcotest.test_case "batch workload partition containment" `Quick
        test_workload_batch_single_partition ]

(* --- open-loop workload generator --------------------------------------------- *)

module OL = W.Open_loop

let test_open_loop_arrivals_monotone_and_paced () =
  let wl = OL.create (Sim.Rng.create 3) ~key_range:10_000 ~rate:(OL.Constant 10_000.0) in
  let last = ref 0.0 and n = ref 0 in
  while OL.clock wl < 1.0 do
    let a = OL.next wl in
    Alcotest.(check bool) "arrival times monotone" true (a.OL.at >= !last);
    last := a.OL.at;
    incr n
  done;
  Alcotest.(check int) "generated counter" !n (OL.generated wl);
  (* Poisson with rate 10k over 1s: well within 20% of the mean. *)
  Alcotest.(check bool)
    (Printf.sprintf "rate in the ballpark (%d arrivals)" !n)
    true
    (!n > 8_000 && !n < 12_000)

let test_open_loop_keysets_match_ops () =
  let wl =
    OL.create ~read_pct:40 (Sim.Rng.create 4) ~key_range:10_000
      ~rate:(OL.Constant 5_000.0)
  in
  for _ = 1 to 2_000 do
    let a = OL.next wl in
    match a.OL.op with
    | BS.Insert { key; _ } | BS.Delete { key } ->
        (* Read-modify-write: both sets cover exactly the touched key. *)
        Alcotest.(check bool) "write set covers the key" true
          (Btree.Keyset.overlaps a.OL.writes (Btree.Keyset.singleton key));
        Alcotest.(check bool) "read set covers the key" true
          (Btree.Keyset.overlaps a.OL.reads (Btree.Keyset.singleton key))
    | BS.Query { lo; hi } ->
        Alcotest.(check bool) "queries write nothing" true
          (Btree.Keyset.is_empty a.OL.writes);
        Alcotest.(check bool) "read set covers the range" true
          (Btree.Keyset.overlaps a.OL.reads (Btree.Keyset.range ~lo ~hi))
    | _ -> Alcotest.fail "unexpected op"
  done

let test_open_loop_zipf_skew () =
  (* With zipf skew the bottom 1% of the key space absorbs far more than
     its uniform share of updates. *)
  let updates_in_hot_1pct ~zipf_s =
    let wl =
      OL.create ~zipf_s ~read_pct:0 (Sim.Rng.create 5) ~key_range:100_000
        ~rate:(OL.Constant 10_000.0)
    in
    let hot = ref 0 and total = ref 0 in
    for _ = 1 to 10_000 do
      match (OL.next wl).OL.op with
      | BS.Insert { key; _ } | BS.Delete { key } ->
          incr total;
          if key <= 1_000 then incr hot
      | _ -> ()
    done;
    float_of_int !hot /. float_of_int !total
  in
  let uniform = updates_in_hot_1pct ~zipf_s:0.0 in
  let skewed = updates_in_hot_1pct ~zipf_s:1.2 in
  Alcotest.(check bool)
    (Printf.sprintf "uniform ~1%% (%.3f), zipf much more (%.3f)" uniform skewed)
    true
    (uniform < 0.05 && skewed > 10.0 *. uniform)

let test_open_loop_storm_and_rate_curve () =
  (* A hot-partition storm redirects keys to the bottom 1% during its
     window, and the Storm curve raises the arrival rate there. *)
  let wl =
    OL.create ~read_pct:0 ~hot_storm:(0.4, 0.2, 80) (Sim.Rng.create 6)
      ~key_range:100_000
      ~rate:(OL.Storm { base = 5_000.0; peak = 20_000.0; at = 0.4; len = 0.2 })
  in
  Alcotest.(check bool) "rate follows the curve" true
    (OL.rate_at wl 0.1 = 5_000.0 && OL.rate_at wl 0.5 = 20_000.0);
  let in_hot = ref 0 and in_total = ref 0 in
  let out_hot = ref 0 and out_total = ref 0 in
  while OL.clock wl < 1.0 do
    let a = OL.next wl in
    match a.OL.op with
    | BS.Insert { key; _ } | BS.Delete { key } ->
        let stormy = a.OL.at >= 0.4 && a.OL.at < 0.6 in
        if stormy then incr in_total else incr out_total;
        if key <= 1_000 then if stormy then incr in_hot else incr out_hot
    | _ -> ()
  done;
  let frac h t = float_of_int !h /. float_of_int (max 1 !t) in
  Alcotest.(check bool)
    (Printf.sprintf "storm concentrates keys (%.2f in, %.2f out)"
       (frac in_hot in_total) (frac out_hot out_total))
    true
    (frac in_hot in_total > 0.5 && frac out_hot out_total < 0.05);
  (* The storm window also saw ~4x the arrivals of an equal quiet window. *)
  Alcotest.(check bool)
    (Printf.sprintf "storm raises arrival rate (%d vs %d)" !in_total !out_total)
    true
    (float_of_int !in_total > 2.0 *. (float_of_int !out_total /. 4.0))

let suite =
  suite
  @ [ Alcotest.test_case "open loop: monotone, Poisson-paced" `Quick
        test_open_loop_arrivals_monotone_and_paced;
      Alcotest.test_case "open loop: keysets match ops" `Quick
        test_open_loop_keysets_match_ops;
      Alcotest.test_case "open loop: zipf skew" `Quick test_open_loop_zipf_skew;
      Alcotest.test_case "open loop: storm + rate curve" `Quick
        test_open_loop_storm_and_rate_curve ]

(* --- open loop: peek / YCSB mixes / piecewise curves --------------------- *)

let test_open_loop_peek_semantics () =
  let wl =
    OL.create (Sim.Rng.create 3) ~key_range:1_000 ~rate:(OL.Constant 1_000.0)
  in
  let p1 = OL.peek wl in
  Alcotest.(check int) "peek does not count" 0 (OL.generated wl);
  let p2 = OL.peek wl in
  Alcotest.(check bool) "peek is idempotent" true
    (p1.OL.at = p2.OL.at && p1.OL.op == p2.OL.op);
  let a = OL.next wl in
  Alcotest.(check bool) "next returns the peeked arrival" true
    (a.OL.at = p1.OL.at && a.OL.op == p1.OL.op);
  Alcotest.(check int) "next counts" 1 (OL.generated wl);
  let b = OL.next wl in
  Alcotest.(check bool) "arrivals stay monotone past a peek" true
    (b.OL.at > a.OL.at);
  Alcotest.(check int) "two consumed" 2 (OL.generated wl)

let test_open_loop_seq_boundaries () =
  (* Half-open segments: the boundary instant belongs to the next segment
     only, inner curves see segment-local time, the last runs forever. *)
  let wl =
    OL.create (Sim.Rng.create 4) ~key_range:1_000
      ~rate:
        (OL.Seq
           [ (OL.Constant 100.0, 1.0);
             (OL.Ramp { from_rate = 200.0; to_rate = 400.0; over = 2.0 }, 2.0);
             (OL.Constant 50.0, 1.0) ])
  in
  Alcotest.(check (float 1e-9)) "first segment" 100.0 (OL.rate_at wl 0.5);
  Alcotest.(check (float 1e-9)) "boundary belongs to next segment" 200.0
    (OL.rate_at wl 1.0);
  Alcotest.(check (float 1e-6)) "ramp sees segment-local time" 300.0
    (OL.rate_at wl 2.0);
  Alcotest.(check (float 1e-9)) "boundary into last segment" 50.0
    (OL.rate_at wl 3.0);
  Alcotest.(check (float 1e-9)) "last segment runs forever" 50.0
    (OL.rate_at wl 10.0)

let test_open_loop_op_mix_and_inserts () =
  let key_range = 10_000 in
  let wl =
    OL.create
      ~ops:[ (OL.Read, 40); (OL.Update, 30); (OL.Insert, 20); (OL.Scan, 10) ]
      ~dist:OL.Uniform (Sim.Rng.create 5) ~key_range
      ~rate:(OL.Constant 10_000.0)
  in
  let reads = ref 0 and updates = ref 0 and inserts = ref 0 and scans = ref 0 in
  let n = 4_000 in
  for _ = 1 to n do
    match (OL.next wl).OL.op with
    | BS.Query { lo; hi } -> if lo = hi then incr reads else incr scans
    | BS.Insert { key; _ } ->
        (* Inserts allocate fresh keys above the preloaded range. *)
        if key > key_range then incr inserts else incr updates
    | BS.Delete _ -> incr updates
    | _ -> ()
  done;
  let frac r = float_of_int !r /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mix close to weights (%.2f/%.2f/%.2f/%.2f)" (frac reads)
       (frac updates) (frac inserts) (frac scans))
    true
    (abs_float (frac reads -. 0.40) < 0.05
    && abs_float (frac updates -. 0.30) < 0.05
    && abs_float (frac inserts -. 0.20) < 0.05
    && abs_float (frac scans -. 0.10) < 0.05);
  Alcotest.(check int) "max_key tracks allocations" (key_range + !inserts)
    (OL.max_key wl)

let test_open_loop_latest_skew () =
  (* Latest-key distribution (YCSB-D): reads concentrate near the newest
     inserted keys, not near key 0 as plain zipf would. *)
  let wl =
    OL.create
      ~ops:[ (OL.Read, 95); (OL.Insert, 5) ]
      ~dist:(OL.Latest 0.99) (Sim.Rng.create 6) ~key_range:100_000
      ~rate:(OL.Constant 10_000.0)
  in
  let near = ref 0 and total = ref 0 in
  for _ = 1 to 5_000 do
    match (OL.next wl).OL.op with
    | BS.Query { lo; hi } when lo = hi ->
        incr total;
        if OL.max_key wl - lo < 1_000 then incr near
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "reads concentrate near newest keys (%.2f)"
       (float_of_int !near /. float_of_int (max 1 !total)))
    true
    (float_of_int !near /. float_of_int (max 1 !total) > 0.5)

let test_open_loop_update_values_unique () =
  (* Every update carries a unique value — what makes write responses
     identifiable in a linearizability history. *)
  let wl =
    OL.create
      ~ops:[ (OL.Update, 100) ]
      ~dist:OL.Uniform (Sim.Rng.create 7) ~key_range:100
      ~rate:(OL.Constant 10_000.0)
  in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 2_000 do
    match (OL.next wl).OL.op with
    | BS.Insert { value; _ } ->
        Alcotest.(check bool) "value not reused" false (Hashtbl.mem seen value);
        Hashtbl.replace seen value ()
    | _ -> ()
  done;
  Alcotest.(check bool) "updates flowed" true (Hashtbl.length seen > 1_000)

(* --- multi-key linearizability checker ----------------------------------- *)

let test_kv_checker_accepts () =
  let h =
    [ { L.Kv.key = 1; kind = `Write (Some 10); inv = 0.0; res = 1.0 };
      { L.Kv.key = 2; kind = `Read None; inv = 0.5; res = 0.6 };
      { L.Kv.key = 1; kind = `Read (Some 10); inv = 1.5; res = 1.6 };
      { L.Kv.key = 1; kind = `Write None; inv = 2.0; res = 3.0 };
      { L.Kv.key = 1; kind = `Read None; inv = 3.5; res = 3.6 };
      (* Applied but never acknowledged: open response time. *)
      { L.Kv.key = 2; kind = `Write (Some 7); inv = 3.0; res = infinity } ]
  in
  Alcotest.(check bool) "interleaved multi-key history with delete" true
    (L.Kv.check ~init:(fun _ -> None) h)

let test_kv_checker_rejects_stale_read () =
  let init k = if k = 1 then Some 1 else None in
  let with_read inv =
    [ { L.Kv.key = 1; kind = `Write (Some 2); inv = 1.0; res = 2.0 };
      { L.Kv.key = 1; kind = `Read (Some 1); inv; res = inv +. 0.1 } ]
  in
  (* A read overlapping the write may still observe the old value... *)
  Alcotest.(check bool) "overlapping read of old value ok" true
    (L.Kv.check ~init (with_read 1.2));
  (* ...but a read invoked after the write responded may not: this is the
     stale-local-read shape a broken lease produces. *)
  Alcotest.(check bool) "stale read rejected" false
    (L.Kv.check ~init (with_read 3.0))

let test_kv_checker_respects_init () =
  let h = [ { L.Kv.key = 5; kind = `Read (Some 42); inv = 0.0; res = 0.1 } ] in
  Alcotest.(check bool) "read of initial value" true
    (L.Kv.check ~init:(fun k -> if k = 5 then Some 42 else None) h);
  Alcotest.(check bool) "read of absent key rejected" false
    (L.Kv.check ~init:(fun _ -> None) h)

let suite =
  suite
  @ [ Alcotest.test_case "open loop: peek semantics" `Quick
        test_open_loop_peek_semantics;
      Alcotest.test_case "open loop: seq curve boundaries" `Quick
        test_open_loop_seq_boundaries;
      Alcotest.test_case "open loop: op mix + fresh inserts" `Quick
        test_open_loop_op_mix_and_inserts;
      Alcotest.test_case "open loop: latest-key skew" `Quick
        test_open_loop_latest_skew;
      Alcotest.test_case "open loop: unique update values" `Quick
        test_open_loop_update_values_unique;
      Alcotest.test_case "kv checker: accepts valid history" `Quick
        test_kv_checker_accepts;
      Alcotest.test_case "kv checker: rejects stale read" `Quick
        test_kv_checker_rejects_stale_read;
      Alcotest.test_case "kv checker: respects init" `Quick
        test_kv_checker_respects_init ]
