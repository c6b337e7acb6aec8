(* The full-stack benchmark.

     dune exec bench/stack/stack.exe -- --workload <name|all> --seed <n>
       [--seconds <s>] [--traced | --trace <0|1>] [--json <file>]

   Prints every metric by name with its unit, then one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  End-to-end metrics by
   default; with --traced the per-layer ledger of a separate traced run.
   --json appends the full results to a JSON array in <file>, the input of
   compare.exe.  Exits non-zero when a correctness check fails. *)

open Stackbench

let () =
  let workload = ref "all" and seed = ref 7 and seconds = ref 0.0 in
  let traced = ref false and json = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "<name|all> ycsb-a, ycsb-c, abcast-8k, failover or all");
      ("--seed", Arg.Set_int seed, "<n> seed of the inputs (default 7)");
      ("--seconds", Arg.Set_float seconds, "<s> wall budget per workload for repetitions (default: the minimum)");
      ("--traced", Arg.Set traced, " per-layer metrics from a traced run");
      ("--trace", Arg.Int (fun v -> traced := v <> 0), "<0|1> same as --traced when 1");
      ("--json", Arg.Set_string json, "<file> append the results to this JSON array") ]
  in
  let usage = "stack.exe --workload <name|all> --seed <n> [--seconds <s>] [--traced] [--json <file>]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let workloads =
    if !workload = "all" then Run.workloads
    else
      match Run.find !workload with
      | Some w -> [ w ]
      | None ->
          prerr_endline ("unknown workload " ^ !workload);
          exit 2
  in
  let results =
    List.map
      (fun w ->
        let r =
          if !traced then Report.traced_run w ~seed:!seed ~seconds:!seconds
          else Report.end_to_end_run w ~seed:!seed ~seconds:!seconds
        in
        Report.print r;
        r)
      workloads
  in
  if !json <> "" then begin
    let previous = if Sys.file_exists !json then Json.to_list (Json.read_file !json) else [] in
    let entry =
      Json.Obj
        [ ("seed", Json.Num (float_of_int !seed));
          ("traced", Json.Bool !traced);
          ("workloads", Json.Obj (List.map (fun (r : Report.result) -> (r.workload.name, Report.result_json r)) results)) ]
    in
    let oc = open_out !json in
    output_string oc ("[\n" ^ String.concat ",\n" (List.map Json.to_string (previous @ [ entry ])) ^ "\n]\n");
    close_out oc
  end;
  print_endline (Json.to_string (Report.summary results));
  if not (List.for_all (fun (r : Report.result) -> r.correct) results) then exit 1
