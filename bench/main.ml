(* Experiment harness: regenerates every table and figure of the paper's
   evaluation sections.  Run `dune exec bench/main.exe -- list` to see all
   experiment ids, `-- <id>` for one, or no argument for everything. *)

let experiments : (string * string * (unit -> unit)) list =
  [ ("fig3.2", "one-to-many: unicast vs multicast vs pipeline", Fig3.fig3_2);
    ("fig3.3", "multicast loss vs senders", Fig3.fig3_3);
    ("fig3.4", "many-to-one: pipeline vs unicast", Fig3.fig3_4);
    ("table3.1", "analytic protocol comparison", Fig3.table3_1);
    ("fig3.7", "Ring Paxos vs other protocols", Fig3.fig3_7);
    ("table3.2", "protocol efficiency", Fig3.table3_2);
    ("fig3.8", "ring size impact", Fig3.fig3_8);
    ("fig3.9", "synchronous disk writes", Fig3.fig3_9);
    ("fig3.10", "message size: M-Ring Paxos", Fig3.fig3_10);
    ("fig3.11", "message size: U-Ring Paxos", Fig3.fig3_11);
    ("fig3.12", "socket buffers: M-Ring Paxos", Fig3.fig3_12);
    ("fig3.13", "socket buffers: U-Ring Paxos", Fig3.fig3_13);
    ("fig3.14", "flow control timeline", Fig3.fig3_14);
    ("table3.3", "CPU/memory per role: M-Ring", Fig3.table3_3);
    ("table3.4", "CPU/memory per role: U-Ring", Fig3.table3_4);
    ("fig4.3", "cost of replication (CS vs SMR)", Fig4.fig4_3);
    ("fig4.4", "CS vs SMR, 1-8 replicas", Fig4.fig4_4);
    ("fig4.5", "speculation: queries", Fig4.fig4_5);
    ("fig4.6", "speculation: batched updates", Fig4.fig4_6);
    ("fig4.7", "state partitioning", Fig4.fig4_7);
    ("fig4.8", "cross-partition queries, 2 replicas", Fig4.fig4_8);
    ("fig4.9", "cross-partition queries, 3 replicas", Fig4.fig4_9);
    ("fig4.10", "speculation + partitioning", Fig4.fig4_10);
    ("fig5.1", "in-memory vs recoverable Ring Paxos", Fig5.fig5_1);
    ("fig5.2", "one ring does not scale with partitions", Fig5.fig5_2);
    ("fig5.4", "Multi-Ring scalability", Fig5.fig5_4);
    ("fig5.5", "learner subscribing to all groups", Fig5.fig5_5);
    ("fig5.5b", "ablation: gamma groups over delta rings", Fig5.fig5_5b);
    ("fig5.6", "impact of Delta", Fig5.fig5_6);
    ("fig5.7", "impact of M", Fig5.fig5_7);
    ("fig5.8", "impact of lambda: equal rates", Fig5.fig5_8);
    ("fig5.9", "impact of lambda: skewed rates", Fig5.fig5_9);
    ("fig5.10", "impact of lambda: oscillating rates", Fig5.fig5_10);
    ("fig5.11", "ring coordinator failure", Fig5.fig5_11);
    ("table6.1", "parallel SMR approaches", Fig6.table6_1);
    ("fig6.3", "P-SMR: independent commands", Fig6.fig6_3);
    ("fig6.4", "P-SMR: dependent commands", Fig6.fig6_4);
    ("fig6.5", "P-SMR: mixed workloads", Fig6.fig6_5);
    ("fig6.6", "P-SMR: scalability, uniform", Fig6.fig6_6);
    ("fig6.7", "P-SMR: scalability, skewed", Fig6.fig6_7);
    ("table7.1", "cloud configurations", Fig7.table7_1);
    ("fig7.2", "cloud peak performance", Fig7.fig7_2);
    ("fig7.3", "S-Paxos under failures", Fig7.fig7_3);
    ("fig7.4", "OpenReplica under failures", Fig7.fig7_4);
    ("fig7.5", "U-Ring Paxos under failures", Fig7.fig7_5);
    ("fig7.6", "Libpaxos under failures", Fig7.fig7_6);
    ("fig7.7", "Libpaxos+ under failures", Fig7.fig7_7);
    ("micro", "bechamel micro-benchmarks", Micro.run);
    ("engine",
     "event-engine and message-path microbench (emits BENCH_engine.json)",
     Engine_bench.run);
    ("psmr",
     "parallel-executor sweep, conflict rate x workers (emits BENCH_psmr.json)",
     Psmr_bench.run);
    ("kv",
     "replicated KV + lease read tier, YCSB presets (emits BENCH_kv.json)",
     Kv_bench.run);
    ("soak", "live-heap growth over 10^6 YCSB-A operations, leases on", Soak.run) ]

let list_experiments () =
  Printf.printf "%-10s %s\n" "id" "description";
  List.iter (fun (id, descr, _) -> Printf.printf "%-10s %s\n" id descr) experiments

let run_one id =
  match List.find_opt (fun (id', _, _) -> id' = id) experiments with
  | Some (_, _, f) ->
      f ();
      flush stdout
  | None ->
      Printf.eprintf "unknown experiment %S; try `list`\n" id;
      exit 1

let chapters =
  [ ("ch3", Fig3.all); ("ch4", Fig4.all); ("ch5", Fig5.all); ("ch6", Fig6.all);
    ("ch7", Fig7.all) ]

(* Strip `--json <path>` (machine-readable metrics dump) and `--trace
   <path>` (Chrome trace_event capture) from the argument list before
   experiment dispatch. *)
let rec extract_output_flags = function
  | [] -> []
  | [ "--json" ] ->
      prerr_endline "--json requires a file path";
      exit 1
  | "--json" :: path :: rest ->
      Util.set_json_output path;
      extract_output_flags rest
  | [ "--trace" ] ->
      prerr_endline "--trace requires a file path";
      exit 1
  | "--trace" :: path :: rest ->
      Util.set_trace_output path;
      extract_output_flags rest
  | a :: rest -> a :: extract_output_flags rest

let () =
  (match extract_output_flags (List.tl (Array.to_list Sys.argv)) with
  (* `chaos` owns the rest of the argument list (seeded fault schedules
     with per-run verdicts; see lib/fault). *)
  | "chaos" :: rest -> Chaos_cmd.run rest
  | [] | [ "all" ] ->
      List.iter
        (fun (id, _, f) ->
          ignore id;
          f ();
          flush stdout)
        experiments
  | [ "list" ] -> list_experiments ()
  | args ->
      List.iter
        (fun a ->
          match List.assoc_opt a chapters with
          | Some f ->
              f ();
              flush stdout
          | None -> run_one a)
        args);
  Util.write_json ();
  Util.write_trace ()
