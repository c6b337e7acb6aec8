(* The benchmark's own tests, at tiny scale: determinism of the
   virtual-time metrics, tracing that does not perturb a run, failures that
   count against the latency tail, and BENCHMARK.json naming exactly the
   metrics the benchmark prints. *)

open Stackbench

let workload name = Option.get (Run.find name)

(* A fraction of a second of virtual time at a low rate. *)
let tiny (w : Run.workload) = { Run.rate = Float.min w.rate 4000.0; from = 0.0; till = 0.2; kill = None }

(* The virtual-time end-to-end figures of one run, as the JSON text the
   benchmark would print. *)
let virtual_text (o : Run.outcome) =
  Json.to_string
    (Json.Arr
       (List.map
          (fun x -> Json.Num x)
          [ Run.percentile o 0.5;
            Run.percentile o 0.99;
            Run.percentile o 0.999;
            Run.fail_frac o;
            o.stall;
            float_of_int o.attempted;
            float_of_int o.failed ]))

let same_seed_same_metrics () =
  List.iter
    (fun name ->
      let w = workload name in
      let a = Run.run w ~seed:3 (tiny w) and b = Run.run w ~seed:3 (tiny w) in
      Alcotest.(check string) (name ^ " byte-identical") (virtual_text a) (virtual_text b);
      Alcotest.(check bool) (name ^ " same latencies") true (Run.same_virtual a b);
      Alcotest.(check bool) (name ^ " nothing failed") true (a.failed = 0 && a.attempted > 0))
    [ "ycsb-a"; "ycsb-c"; "abcast-8k" ];
  let w = workload "ycsb-a" in
  Alcotest.(check bool) "another seed, other inputs" false
    (virtual_text (Run.run w ~seed:3 (tiny w)) = virtual_text (Run.run w ~seed:4 (tiny w)))

let traced_equals_untraced () =
  List.iter
    (fun name ->
      let w = workload name in
      let shape = tiny w in
      let bare = Run.run w ~seed:5 shape in
      let m = Ledger.measure ~shape w ~seed:5 in
      Alcotest.(check bool) (name ^ " timed equals traced") true m.same;
      Alcotest.(check string) (name ^ " bare equals traced") (virtual_text bare) (virtual_text m.traced))
    [ "ycsb-a"; "abcast-8k" ]

(* Past the knee a 4 KB proposer buffer overflows: the dropped commands
   never complete, so they count as failed and push p99 to the drain
   length. *)
let drops_count_as_failures () =
  let cfg = Kv.default_config in
  let kv_cfg = { cfg with ring = { cfg.ring with Ringpaxos.Mring.proposer_buffer = 4096 } } in
  let w = workload "ycsb-a" in
  let dep = ref None in
  let o = Run.run ~kv_cfg ~instrument:(fun d -> dep := Some d) w ~seed:2 { (tiny w) with rate = 150_000.0 } in
  let drops = match (Option.get !dep).sys with Run.Kv_sys s -> Kv.drops s.kv | Run.Ab_sys _ -> 0 in
  Alcotest.(check bool) "the buffer dropped commands" true (drops > 0);
  Alcotest.(check bool) "every drop is a failure" true (o.failed >= drops);
  Alcotest.(check bool) "fail_frac counts them" true (Run.fail_frac o >= float_of_int drops /. float_of_int o.attempted);
  Alcotest.(check bool) "more than 1% failed" true (Run.fail_frac o > 0.01);
  Alcotest.(check (float 0.0)) "censored p99 is the drain" Run.drain (Run.percentile o 0.99);
  Alcotest.(check bool) "the search calls it a failure" false (Run.passes o)

let names key field =
  let bench = Json.read_file "../../BENCHMARK.json" in
  List.map (fun m -> Json.to_str (Json.member field m)) (Json.to_list (Json.member key bench))

let benchmark_json_matches () =
  Alcotest.(check (list string)) "workloads" (List.map (fun (w : Run.workload) -> w.name) Run.workloads)
    (names "workloads" "name");
  Alcotest.(check (list string)) "end-to-end names" (List.map fst Report.end_to_end) (names "end_to_end" "name");
  Alcotest.(check (list string)) "end-to-end units" (List.map snd Report.end_to_end) (names "end_to_end" "unit");
  List.iter
    (fun name ->
      let w = workload name in
      let m = Ledger.measure ~shape:(tiny w) w ~seed:1 in
      Alcotest.(check (list string)) (name ^ " per-layer names")
        (List.map (fun (l : Ledger.metric) -> l.name) m.common)
        (names "per_layer" "name"))
    [ "ycsb-c"; "abcast-8k" ]

let () =
  Alcotest.run "stack"
    [ ( "bench",
        [ Alcotest.test_case "same seed, byte-identical virtual metrics" `Quick same_seed_same_metrics;
          Alcotest.test_case "traced run equals untraced" `Quick traced_equals_untraced;
          Alcotest.test_case "proposer-buffer drops count as failures" `Quick drops_count_as_failures;
          Alcotest.test_case "BENCHMARK.json names the printed metrics" `Quick benchmark_json_matches ] ) ]
