(* `-- kv`: the replicated KV service end to end — client proxy → batcher
   → Multi-Ring ordered delivery → dependency-aware executor → btree —
   under the YCSB core workloads, with the lease read tier on and off.
   Three slices:

   1. a preset sweep (YCSB A-E) quoting per-class p50/p99/p999;
   2. a leases on/off grid on YCSB-A (update-heavy) and YCSB-C
      (read-only) at 2 workers, the headline local-read comparison;
   3. sustained-throughput ladders on YCSB-C: leases on at 1, 2 and 4
      executor workers, and leases off at 2.  The offered rate doubles
      until a rung breaks the read-p99 budget, then the last bracket is
      bisected; the first failing rung is recorded, so the sustained rate
      is a ceiling, not the top of a fixed ladder.  At a flat low rate
      every worker count reads the same; only a ladder shows what the
      worker pool buys.

   A final verify slice replays a small history-recording run through the
   linearizability checker.  Results go to stdout and BENCH_kv.json; CI
   gates on the local-to-ordered read p99 ratio on YCSB-C, every ladder
   finding a failing rung, the linearizability verdict, throughput
   floors and the 2-to-1-worker ladder ratio. *)

let out_file = "BENCH_kv.json"
let grid_rate = 2_000.0
let until = 1.0
let drain = 0.5
let p99_budget_ms = 5.0
let ladder_from = 1_000.0
let ladder_cap = 4_096_000.0  (* a rung this high that still holds is a bug *)
let bisections = 4
let grid_workers = 2
let ladder_workers = [ 1; 2; 4 ]

type run = {
  preset : Kv.Ycsb.preset;
  leases : bool;
  workers : int;
  rate : float;
  generated : int;
  issued : int;
  drops : int;
  completed : int;
  ops_per_sec : float;
  local_reads : int;
  local_nacks : int;
  read_p50 : float;  (** worst read class, ms *)
  read_p99 : float;
  read_p999 : float;
  rows : Kv.Slo.row list;
  table : string;
}

(* One open-loop run at a fixed offered rate; the drain window lets every
   deferred write response and read fallback land before meters are read. *)
let run_once ?(seed = 7) ~preset ~leases ~workers ~rate () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create seed) in
  let config = { Kv.default_config with leases; n_workers = workers } in
  let sys = Kv.create net config ~n_clients:4 in
  let wl =
    Kv.Ycsb.workload preset
      (Sim.Rng.create (seed + 1))
      ~rate:(Smr.Workload.Open_loop.Constant rate)
  in
  Kv.start_open sys wl ~until;
  Sim.Engine.run engine ~until:(until +. drain);
  let slo = Kv.slo sys in
  let rows = Kv.Slo.rows slo in
  let completed = List.fold_left (fun a (r : Kv.Slo.row) -> a + r.count) 0 rows in
  (* Read-path tail: the worse of the local and ordered read classes, so a
     lease tier that serves most reads locally cannot hide the latency of
     the reads it strands on the fallback path. *)
  let read_rows =
    List.filter
      (fun (r : Kv.Slo.row) -> r.cls = "read" || r.cls = "read-local")
      rows
  in
  let worst f = List.fold_left (fun a r -> Float.max a (f r)) 0.0 read_rows in
  { preset;
    leases;
    workers;
    rate;
    generated = Smr.Workload.Open_loop.generated wl;
    issued = Kv.issued sys;
    drops = Kv.drops sys;
    completed;
    ops_per_sec = float_of_int completed /. until;
    local_reads = Kv.counter sys "kv_local_reads";
    local_nacks = Kv.counter sys "kv_local_nacks";
    read_p50 = worst (fun r -> r.Kv.Slo.p50_ms);
    read_p99 = worst (fun r -> r.Kv.Slo.p99_ms);
    read_p999 = worst (fun r -> r.Kv.Slo.p999_ms);
    rows;
    table = Kv.Slo.render slo }

let preset_sweep () =
  Util.header
    "YCSB presets (3 replicas, 2 workers, leases on, 2 kops/s offered)";
  List.map
    (fun preset ->
      let r = run_once ~preset ~leases:true ~workers:2 ~rate:grid_rate () in
      Printf.printf "%s — %s  (%.0f ops/s, %d local reads)\n%s\n"
        (Kv.Ycsb.name preset) (Kv.Ycsb.describe preset) r.ops_per_sec
        r.local_reads r.table;
      Util.snap
        (Printf.sprintf "kv/%s" (Kv.Ycsb.name preset))
        ~events_per_sec:r.ops_per_sec
        ~counters:[ ("local_reads", r.local_reads); ("drops", r.drops) ];
      r)
    Kv.Ycsb.all

let grid () =
  Util.header
    (Printf.sprintf "Lease tier on/off (YCSB-A and YCSB-C, %d workers)"
       grid_workers);
  Printf.printf "%-7s %-6s %7s %12s %10s %10s %10s %10s\n" "preset" "leases"
    "workers" "ops/s" "local" "nacks" "p99(ms)" "p999(ms)";
  let cells = ref [] in
  List.iter
    (fun preset ->
      List.iter
        (fun leases ->
          let workers = grid_workers in
          let r = run_once ~preset ~leases ~workers ~rate:grid_rate () in
          Printf.printf "%-7s %-6b %7d %12.0f %10d %10d %10.3f %10.3f\n"
            (Kv.Ycsb.name r.preset) r.leases r.workers r.ops_per_sec
            r.local_reads r.local_nacks r.read_p99 r.read_p999;
          Util.snap
            (Printf.sprintf "kv/grid/%s/%s/%dw" (Kv.Ycsb.name preset)
               (if leases then "leases" else "ordered")
               workers)
            ~events_per_sec:r.ops_per_sec
            ~counters:[ ("local_reads", r.local_reads) ];
          cells := r :: !cells)
        [ true; false ])
    [ Kv.Ycsb.A; Kv.Ycsb.C ];
  List.rev !cells

(* A rung holds when the read tail stays inside the budget and every
   arrival completed by the end of the drain: a rung that drops or strands
   operations does not sustain its offered rate. *)
let holds r = r.read_p99 <= p99_budget_ms && r.completed = r.generated

(* Double the offered rate from [ladder_from] until a rung fails, then
   bisect the last bracket [bisections] times.  Returns the highest rate
   that held (0 if none), the lowest that failed (None if the cap held),
   and every rung in the order probed. *)
let ladder ~leases ~workers =
  let probed = ref [] in
  let probe rate =
    let r = run_once ~preset:Kv.Ycsb.C ~leases ~workers ~rate () in
    Printf.printf "%-7s %7d %12.0f %12.0f %10.3f %10d %6s\n"
      (if leases then "leases" else "ordered")
      workers rate r.ops_per_sec r.read_p99 r.drops
      (if holds r then "holds" else "fails");
    probed := r :: !probed;
    holds r
  in
  let rec climb ok rate =
    if rate > ladder_cap then (ok, None)
    else if probe rate then climb rate (2.0 *. rate)
    else (ok, Some rate)
  in
  let rec bisect ok bad n =
    if n = 0 then (ok, bad)
    else
      let mid = Float.round ((ok +. bad) /. 2.0) in
      if probe mid then bisect mid bad (n - 1) else bisect ok mid (n - 1)
  in
  let sustained, failing =
    match climb 0.0 ladder_from with
    | ok, Some bad when ok > 0.0 ->
        let ok, bad = bisect ok bad bisections in
        (ok, Some bad)
    | res -> res
  in
  (sustained, failing, List.rev !probed)

let verify_slice () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create 19) in
  let config =
    { Kv.default_config with
      leases = true;
      lease_dur = 0.05;
      read_timeout = 0.05;
      initial_keys = 0;
      key_range = 64;
      record_history = true }
  in
  let sys = Kv.create net config ~n_clients:4 in
  let wl =
    Smr.Workload.Open_loop.create
      ~ops:
        [ (Smr.Workload.Open_loop.Read, 50); (Smr.Workload.Open_loop.Update, 50) ]
      ~dist:(Smr.Workload.Open_loop.Zipf 0.99)
      (Sim.Rng.create 20) ~key_range:64
      ~rate:(Smr.Workload.Open_loop.Constant 300.0)
  in
  Kv.start_open sys wl ~until;
  Sim.Engine.run engine ~until:(until +. drain);
  let lin = Kv.check_history sys in
  let agree =
    let f0 = Kv.state_fingerprint_at sys 0 in
    List.for_all
      (fun r -> Kv.state_fingerprint_at sys r = f0)
      [ 1; 2 ]
  in
  Printf.printf
    "verify: linearizable=%b replicas_agree=%b (%d ops, %d local reads)\n" lin
    agree
    (List.length (Kv.history sys))
    (Kv.counter sys "kv_local_reads");
  (lin, agree)

let json_of_run (r : run) =
  Printf.sprintf
    "{\"preset\":%S,\"leases\":%b,\"workers\":%d,\"offered_rate\":%.0f,\
     \"generated\":%d,\"issued\":%d,\"drops\":%d,\"completed\":%d,\"ops_per_sec\":%.1f,\
     \"local_reads\":%d,\"local_nacks\":%d,\
     \"read_p50_ms\":%.4f,\"read_p99_ms\":%.4f,\"read_p999_ms\":%.4f,\
     \"classes\":[%s]}"
    (Kv.Ycsb.name r.preset) r.leases r.workers r.rate r.generated r.issued
    r.drops
    r.completed r.ops_per_sec r.local_reads r.local_nacks r.read_p50
    r.read_p99 r.read_p999
    (String.concat "," (List.map Kv.Slo.json_row r.rows))

let run () =
  let presets = preset_sweep () in
  let cells = grid () in
  Util.header
    (Printf.sprintf "Sustained YCSB-C throughput at read p99 <= %.1f ms"
       p99_budget_ms);
  Printf.printf "%-7s %7s %12s %12s %10s %10s %6s\n" "tier" "workers"
    "offered" "ops/s" "p99(ms)" "drops" "rung";
  let ladders_on =
    List.map (fun workers -> (workers, ladder ~leases:true ~workers)) ladder_workers
  in
  let sustained_on, failing_on, _ = List.assoc grid_workers ladders_on in
  let sustained_off, failing_off, ladder_off =
    ladder ~leases:false ~workers:grid_workers
  in
  let rate_opt = function Some r -> Printf.sprintf "%.0f" r | None -> "null" in
  List.iter
    (fun (workers, (sustained, failing, _)) ->
      Printf.printf "leases on, %d workers: sustained %.0f ops/s (fails at %s)\n"
        workers sustained (rate_opt failing))
    ladders_on;
  Printf.printf
    "sustained at budget (%d workers): leases on %.0f ops/s (fails at %s), \
     leases off %.0f ops/s (fails at %s)\n"
    grid_workers sustained_on (rate_opt failing_on) sustained_off
    (rate_opt failing_off);
  let lin, agree = verify_slice () in
  let find ~preset ~leases ~workers =
    List.find
      (fun r -> r.preset = preset && r.leases = leases && r.workers = workers)
      cells
  in
  let c_on = find ~preset:Kv.Ycsb.C ~leases:true ~workers:grid_workers in
  let c_off = find ~preset:Kv.Ycsb.C ~leases:false ~workers:grid_workers in
  let a_on = find ~preset:Kv.Ycsb.A ~leases:true ~workers:grid_workers in
  (* The lease-served class alone, free of the startup transient (the few
     reads issued before the first grants land go ordered and would
     otherwise dominate the leases-on p99). *)
  let local_p99 =
    match List.find_opt (fun (r : Kv.Slo.row) -> r.cls = "read-local") c_on.rows with
    | Some r -> r.p99_ms
    | None -> nan
  in
  Printf.printf
    "YCSB-C read p99: %.3f ms with leases vs %.3f ms ordered (%.0f%% local)\n"
    c_on.read_p99 c_off.read_p99
    (100.0
    *. float_of_int c_on.local_reads
    /. float_of_int (max 1 c_on.completed));
  let by_workers f =
    String.concat ","
      (List.map (fun (w, l) -> Printf.sprintf "\"%d\":%s" w (f l)) ladders_on)
  in
  let oc = open_out out_file in
  Printf.fprintf oc
    "{\n\
     \"bench\":\"kv\",\n\
     \"offered_rate_grid\":%.0f,\n\
     \"p99_budget_ms\":%.1f,\n\
     \"presets\":[\n%s\n],\n\
     \"grid\":[\n%s\n],\n\
     \"ladder\":[\n%s\n],\n\
     \"summary\":{\"ycsb_c_leases_on_read_p99_ms\":%.4f,\
     \"ycsb_c_leases_off_read_p99_ms\":%.4f,\
     \"ycsb_c_local_read_p99_ms\":%.4f,\
     \"ycsb_c_local_read_fraction\":%.4f,\
     \"ycsb_a_ops_per_sec\":%.1f,\
     \"sustained_ops_leases_on\":%.0f,\
     \"sustained_ops_leases_off\":%.0f,\
     \"failing_rate_leases_on\":%s,\
     \"failing_rate_leases_off\":%s,\
     \"sustained_ops_leases_on_by_workers\":{%s},\
     \"failing_rate_leases_on_by_workers\":{%s},\
     \"linearizable\":%b,\"replicas_agree\":%b}\n\
     }\n"
    grid_rate p99_budget_ms
    (String.concat ",\n" (List.map json_of_run presets))
    (String.concat ",\n" (List.map json_of_run cells))
    (String.concat ",\n"
       (List.map json_of_run
          (List.concat_map (fun (_, (_, _, rungs)) -> rungs) ladders_on
          @ ladder_off)))
    c_on.read_p99 c_off.read_p99 local_p99
    (float_of_int c_on.local_reads /. float_of_int (max 1 c_on.completed))
    a_on.ops_per_sec sustained_on sustained_off (rate_opt failing_on)
    (rate_opt failing_off)
    (by_workers (fun (s, _, _) -> Printf.sprintf "%.0f" s))
    (by_workers (fun (_, f, _) -> rate_opt f))
    lin agree;
  close_out oc;
  Printf.printf "wrote %s\n%!" out_file
