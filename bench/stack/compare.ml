(* Compare two result files written by [stack.exe --json].

     dune exec bench/stack/compare.exe -- <base.json> <new.json>
       [--bench BENCHMARK.json]

   Each file is a list of runs.  Per workload and end-to-end metric it
   prints both sides' median and quartiles over their runs, the ratio of
   the medians to the base, and a verdict against the metric's bound in
   BENCHMARK.json:

   - worse: the median moved the wrong way by more than the bound;
   - better: the median moved the right way by more than the base's own
     spread (for the virtual-time metrics, which repeat exactly, any move);
   - unresolved: either side's spread (interquartile range over median)
     exceeds the bound, unless every new run beats every base run;
   - same: otherwise.

   Only ratios are judged, never absolute values.  Exits 1 if any row is
   worse or unresolved. *)

open Stackbench

type bound = { lower_is_better : bool; share : float }

let bounds path =
  Json.to_list (Json.member "end_to_end" (Json.read_file path))
  |> List.map (fun m ->
         ( Json.to_str (Json.member "name" m),
           { lower_is_better = Json.to_str (Json.member "better" m) = "lower";
             share = Json.to_num (Json.member "bound" m) } ))

(* (workload, metric) -> the values of every run in the file, in order. *)
let values path =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun run ->
      List.iter
        (fun (w, r) ->
          List.iter
            (fun (k, m) ->
              let key = (w, k) in
              let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
              Hashtbl.replace tbl key (prev @ [ Json.to_num (Json.member "value" m) ]))
            (Json.to_assoc (Json.member "metrics" r)))
        (Json.to_assoc (Json.member "workloads" run)))
    (Json.to_list (Json.read_file path));
  tbl

(* Median and quartiles the way Python's [statistics.quantiles(n=4)]
   (exclusive method) gives them, so the spread matches other tooling. *)
let quartiles l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q j =
      let m = float_of_int (n + 1) *. float_of_int j /. 4.0 in
      let i = Stdlib.max 1 (Stdlib.min (n - 1) (int_of_float m)) in
      let frac = m -. float_of_int i in
      a.(i - 1) +. ((a.(i) -. a.(i - 1)) *. frac)
    in
    (q 1, q 2, q 3)

let spread (q1, med, q3) = (q3 -. q1) /. Float.abs med

(* The benchmark's metrics are never 0, so the shares below are defined;
   a missing value (a failed search) makes them NaN, and unresolved. *)
let verdict b base next =
  let ((_, mb, _) as qb) = quartiles base and ((_, mn, _) as qn) = quartiles next in
  (* gain > 0 means the new median is better, as a share of the base. *)
  let gain = (if b.lower_is_better then mb -. mn else mn -. mb) /. Float.abs mb in
  let beats x y = if b.lower_is_better then x < y else x > y in
  let all_better = List.for_all (fun x -> List.for_all (beats x) base) next in
  if Float.is_nan gain then "unresolved"
  else if Float.max (spread qb) (spread qn) > b.share then if all_better then "better" else "unresolved"
  else if -.gain > b.share then "worse"
  else if gain > 0.0 && gain > spread qb then "better"
  else "same"

let () =
  let bench = ref "BENCHMARK.json" and files = ref [] in
  Arg.parse
    [ ("--bench", Arg.Set_string bench, "<file> where the bounds are (default BENCHMARK.json)") ]
    (fun f -> files := !files @ [ f ])
    "compare.exe <base.json> <new.json> [--bench BENCHMARK.json]";
  let base_file, new_file =
    match !files with
    | [ a; b ] -> (a, b)
    | _ ->
        prerr_endline "compare.exe: expected two result files";
        exit 2
  in
  let bounds = bounds !bench in
  let base = values base_file and next = values new_file in
  let workloads =
    List.filter_map
      (fun (w : Run.workload) -> if Hashtbl.mem base (w.name, "p50_ms") then Some w.name else None)
      Run.workloads
  in
  let bad = ref 0 in
  Printf.printf "%-10s %-20s %14s %25s %14s %25s %8s  %s\n" "workload" "metric" "base" "base q1..q3" "new"
    "new q1..q3" "ratio" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (k, b) ->
          match (Hashtbl.find_opt base (w, k), Hashtbl.find_opt next (w, k)) with
          | Some bv, Some nv ->
              let q1b, mb, q3b = quartiles bv and q1n, mn, q3n = quartiles nv in
              let v = verdict b bv nv in
              if v = "worse" || v = "unresolved" then incr bad;
              Printf.printf "%-10s %-20s %14.6g %12.6g..%-12.6g %14.6g %12.6g..%-12.6g %8.4f  %s\n" w k mb q1b q3b mn
                q1n q3n (mn /. mb) v
          | Some _, None ->
              incr bad;
              Printf.printf "%-10s %-20s missing from %s\n" w k new_file
          | None, _ -> ())
        bounds)
    workloads;
  if !bad > 0 then exit 1
