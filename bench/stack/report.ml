(* The benchmark's end-to-end metric vocabulary and one workload's
   measurement: the nominal runs, their repetitions for the wall-clock
   metrics, the saturation search and the correctness checks; or, traced,
   the per-layer ledger.  BENCHMARK.json at the repository root names the
   same metrics with their regression bounds. *)

open Run

(* End-to-end metrics, in report order. *)
let end_to_end =
  [ ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("p999_ms", "ms");
    ("max_rate_ops", "ops/s");
    ("ok_frac", "ratio");
    ("outage_ms", "ms");
    ("wall_us_per_op", "us");
    ("alloc_words_per_op", "words");
    ("peak_heap_mb", "MB");
    ("setup_s", "s") ]

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type result = {
  workload : workload;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value: the summary line's metrics *)
  extra : (string * string * float) list;  (** workload-specific per-layer metrics *)
  checks : (string * bool) list;
  notes : (string * Json.t) list;  (** search log and extra figures, for --json *)
}

let elapsed_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* The nominal run is made with [n_sub] seeds derived from the given one,
   and the virtual-time metrics are medians over them: one seed's p999
   rests on a handful of samples, and the median of three moves far less
   from seed to seed. *)
let n_sub = 3
let sub_seed seed k = seed + (k * 1_000_003)

(* [seconds] is the wall budget.  After the [n_sub] nominal runs and the
   search, nominal runs repeat, cycling through the derived seeds, until it
   is spent; each repetition must reproduce its seed's virtual-time outcome
   exactly.  [wall_us_per_op] is the fastest of all of them: other work on
   the machine only ever adds time, and it comes and goes within seconds,
   so the fastest run moves far less between runs than the median does.
   Setup is timed in every run and in bare setups, for at least 50 ms
   after each run, so that the samples spread over the whole budget and a
   burst of other load moves only a few of them; [setup_s] is their
   median, over at least 15. *)
let end_to_end_run (w : workload) ~seed ~seconds =
  let t0 = now_ns () in
  let setups = ref [] in
  let sample_setup () =
    Gc.full_major ();
    let t = now_ns () in
    ignore (create w ~seed ~gaps:(gaps ~from:0.0 ~till:0.0));
    setups := elapsed_since t :: !setups
  in
  let nominal_run k =
    let o = run w ~seed:(sub_seed seed k) (nominal w) in
    setups := (float_of_int o.setup_ns /. 1e9) :: !setups;
    let t = now_ns () in
    while elapsed_since t < 0.05 do
      sample_setup ()
    done;
    o
  in
  let firsts = List.init n_sub nominal_run in
  let search = try Ok (search w ~seed) with No_ceiling msg -> Error msg in
  let repeats = ref [] in
  while elapsed_since t0 < seconds do
    let k = List.length !repeats mod n_sub in
    repeats := (k, nominal_run k) :: !repeats
  done;
  let all = firsts @ List.map snd !repeats in
  while List.length !setups < 15 do
    sample_setup ()
  done;
  let over runs f = median (List.map f runs) in
  let per_op f (o : outcome) = f o /. float_of_int (Stdlib.max 1 o.attempted) in
  let wall_us = List.map (per_op (fun o -> float_of_int o.run_ns /. 1e3)) all in
  let attempted = List.fold_left (fun a (o : outcome) -> a + o.attempted) 0 firsts in
  let failed = List.fold_left (fun a (o : outcome) -> a + o.failed) 0 firsts in
  let checks =
    List.map (fun (k, _) -> (k, List.for_all (fun (o : outcome) -> List.assoc k o.checks) firsts)) (List.hd firsts).checks
    @ [ ("repeatable", List.for_all (fun (k, o) -> same_virtual (List.nth firsts k) o) !repeats);
        ("all_completed", failed = 0);
        ("ceiling_found", Result.is_ok search) ]
  in
  let value = function
    | "p50_ms" -> over firsts (fun o -> 1e3 *. percentile o 0.50)
    | "p99_ms" -> over firsts (fun o -> 1e3 *. percentile o 0.99)
    | "p999_ms" -> over firsts (fun o -> 1e3 *. percentile o 0.999)
    | "max_rate_ops" -> ( match search with Ok s -> s.max_rate | Error _ -> nan)
    | "ok_frac" -> over firsts (fun o -> 1.0 -. fail_frac o)
    | "outage_ms" -> over firsts (fun o -> 1e3 *. o.stall)
    | "wall_us_per_op" -> List.fold_left Float.min infinity wall_us
    | "alloc_words_per_op" -> over firsts (per_op (fun o -> o.minor_words))
    | "peak_heap_mb" -> over firsts (fun o -> float_of_int o.peak_heap_words *. 8.0 /. 1e6)
    | "setup_s" -> median !setups
    | k -> invalid_arg k
  in
  let probe_json (rate, o) =
    Json.Obj
      [ ("rate", Json.Num rate);
        ("pass", Json.Bool (passes o));
        ("p99_ms", Json.Num (1e3 *. percentile o 0.99));
        ("fail_frac", Json.Num (fail_frac o)) ]
  in
  { workload = w;
    seed;
    correct = List.for_all snd checks;
    attempted;
    failed;
    metrics = List.map (fun (k, u) -> (k, u, value k)) end_to_end;
    extra = [];
    checks;
    notes =
      [ ("runs", Json.Num (float_of_int (List.length all)));
        ("wall_us_per_op_runs", Json.Arr (List.map (fun v -> Json.Num v) wall_us));
        ("setup_samples", Json.Num (float_of_int (List.length !setups))) ]
      @
      match search with
      | Ok s ->
          [ ("max_rate_pass_ops", Json.Num s.pass_rate);
            ("max_rate_fail_ops", Json.Num s.fail_rate);
            ("probes", Json.Arr (List.map probe_json s.probes)) ]
      | Error msg -> [ ("search_error", Json.Str msg) ] }

(* Traced: measure pairs (untraced, traced) until the budget is spent, at
   least one; wall-clock metrics are medians, virtual ones repeat. *)
let traced_run (w : workload) ~seed ~seconds =
  let t0 = now_ns () in
  let runs = ref [ Ledger.measure w ~seed ] in
  while elapsed_since t0 < seconds do
    runs := Ledger.measure w ~seed :: !runs
  done;
  let medians pick =
    List.map
      (fun (l : Ledger.metric) ->
        let vals = List.map (fun r -> (List.find (fun (x : Ledger.metric) -> x.name = l.name) (pick r)).value) !runs in
        (l.name, l.unit_, median vals))
      (pick (List.hd !runs))
  in
  let traced = (List.hd !runs).traced in
  let checks =
    traced.checks @ [ ("traced_equals_untraced", List.for_all (fun (r : Ledger.measurement) -> r.same) !runs) ]
  in
  { workload = w;
    seed;
    correct = List.for_all snd checks;
    attempted = traced.attempted;
    failed = traced.failed;
    metrics = medians (fun r -> r.common);
    extra = medians (fun r -> r.extra);
    checks;
    notes = [ ("runs", Json.Num (float_of_int (List.length !runs))) ] }

let metric_json (k, u, v) = (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])

(* The last line of the output.  With several workloads each metric name
   is prefixed with its workload. *)
let summary results =
  let prefix = List.length results > 1 in
  let metrics =
    List.concat_map
      (fun r -> List.map (fun (n, u, v) -> metric_json ((if prefix then r.workload.name ^ "/" ^ n else n), u, v)) r.metrics)
      results
  in
  let total f = Json.Num (float_of_int (List.fold_left (fun a r -> a + f r) 0 results)) in
  Json.Obj
    [ ("correct", Json.Bool (List.for_all (fun r -> r.correct) results));
      ("attempted", total (fun r -> r.attempted));
      ("failed", total (fun r -> r.failed));
      ("metrics", Json.Obj metrics) ]

let result_json r =
  Json.Obj
    ([ ("correct", Json.Bool r.correct);
       ("attempted", Json.Num (float_of_int r.attempted));
       ("failed", Json.Num (float_of_int r.failed));
       ("metrics", Json.Obj (List.map metric_json (r.metrics @ r.extra)));
       ("checks", Json.Obj (List.map (fun (k, b) -> (k, Json.Bool b)) r.checks)) ]
    @ r.notes)

let print r =
  Printf.printf "== %s (seed %d)\n" r.workload.name r.seed;
  List.iter (fun (k, u, v) -> Printf.printf "  %-30s %16.6f %s\n" k v u) (r.metrics @ r.extra);
  Printf.printf "  checks: %s\n%!"
    (String.concat ", " (List.map (fun (k, b) -> k ^ if b then " ok" else " FAILED") r.checks))
