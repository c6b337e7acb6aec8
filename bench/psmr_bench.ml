(* `-- psmr`: dependency-aware parallel executor sweep (conflict rate x
   worker count, pessimistic and optimistic modes), against a sequential
   baseline executing the same command stream.  The executor is driven
   directly (self-clocked, no network) so the sweep isolates scheduling:
   speedup, rollback/conflict counters, commit-latency percentiles and a
   state-fingerprint check against the sequential reference.  A final
   end-to-end slice runs both executor modes behind Multi-Ring Paxos in the
   KV service, closed- and open-loop.  Results go to stdout and
   BENCH_psmr.json; CI gates on the low-conflict speedup, the state check
   and the end-to-end slices' replica agreement, rollbacks and drops. *)

let out_file = "BENCH_psmr.json"
let n_commands = 20_000
let n_hot_keys = 8
let window = 256 (* outstanding commands: self-clocked pacing *)

type cell = {
  mode : string;
  n_workers : int;
  conflict_pct : int;
  commands : int;
  makespan : float;
  speedup : float;
  rollbacks : int;
  conflicts : int;
  p50_ms : float;
  p99_ms : float;
  util_pct : float;
  state_match : bool;
}

(* A command stream with a tunable conflict rate: [conflict_pct] of the
   commands hit one of a few hot keys (read-modify-write, so they
   conflict with each other); the rest touch a key no other command
   uses. *)
let gen_stream ~seed ~n ~conflict_pct =
  let rng = Sim.Rng.create seed in
  Array.init n (fun i ->
      if Sim.Rng.int rng 100 < conflict_pct then 1 + Sim.Rng.int rng n_hot_keys
      else 1 + n_hot_keys + i)

type run_result = {
  rr_makespan : float;
  rr_rollbacks : int;
  rr_conflicts : int;
  rr_p50 : float;
  rr_p99 : float;
  rr_util : float;
  rr_fingerprint : int;
}

(* Feed the stream self-clocked: command i is submitted when command
   i - window committed, so the executor stays saturated with a bounded
   outstanding set in every configuration. *)
let run_stream ~mode ~n_workers stream =
  let svc = Smr.Btree_service.create ~initial_keys:1_000 ~key_range:1_000_000 ~seed:1 () in
  let ex = Psmr.Executor.create ~mode ~n_workers svc.Smr.Btree_service.service in
  let n = Array.length stream in
  let commits = Array.make n 0.0 in
  let lat = Sim.Stats.Latency.create () in
  Array.iteri
    (fun i key ->
      let now = if i < window then 0.0 else commits.(i - window) in
      let ks = Btree.Keyset.singleton key in
      Psmr.Executor.submit ex ~now ~uid:i ~reads:ks ~writes:ks
        (Smr.Btree_service.Insert { key; value = i });
      let commit = Psmr.Executor.last_commit ex in
      commits.(i) <- commit;
      Sim.Stats.Latency.add lat (commit -. now))
    stream;
  let makespan = Psmr.Executor.last_commit ex in
  { rr_makespan = makespan;
    rr_rollbacks = Psmr.Executor.rollbacks ex;
    rr_conflicts = Psmr.Executor.conflicts ex;
    rr_p50 = Sim.Stats.Latency.percentile lat 0.50 *. 1e3;
    rr_p99 = Sim.Stats.Latency.percentile lat 0.99 *. 1e3;
    rr_util = Psmr.Executor.utilization ex ~from:0.0 ~till:makespan;
    rr_fingerprint = Smr.Btree_service.fingerprint svc }

let mode_name = function
  | Psmr.Executor.Pessimistic -> "pessimistic"
  | Psmr.Executor.Optimistic -> "optimistic"

let sweep () =
  let cells = ref [] in
  List.iter
    (fun conflict_pct ->
      let stream = gen_stream ~seed:42 ~n:n_commands ~conflict_pct in
      let seq = run_stream ~mode:Psmr.Executor.Pessimistic ~n_workers:1 stream in
      List.iter
        (fun mode ->
          List.iter
            (fun n_workers ->
              let r = run_stream ~mode ~n_workers stream in
              cells :=
                { mode = mode_name mode;
                  n_workers;
                  conflict_pct;
                  commands = n_commands;
                  makespan = r.rr_makespan;
                  speedup = seq.rr_makespan /. r.rr_makespan;
                  rollbacks = r.rr_rollbacks;
                  conflicts = r.rr_conflicts;
                  p50_ms = r.rr_p50;
                  p99_ms = r.rr_p99;
                  util_pct = r.rr_util;
                  state_match = r.rr_fingerprint = seq.rr_fingerprint }
                :: !cells)
            [ 1; 2; 4; 8 ])
        [ Psmr.Executor.Pessimistic; Psmr.Executor.Optimistic ])
    [ 0; 10; 25; 50 ];
  List.rev !cells

(* Rollback determinism and state safety across seeds: same seed => same
   rollback count; every mode/worker combination ends with the byte-same
   tree as the sequential reference. *)
let seed_checks () =
  let ok = ref true and det = ref true in
  List.iter
    (fun seed ->
      List.iter
        (fun conflict_pct ->
          let stream = gen_stream ~seed ~n:5_000 ~conflict_pct in
          let seq = run_stream ~mode:Psmr.Executor.Pessimistic ~n_workers:1 stream in
          List.iter
            (fun mode ->
              let a = run_stream ~mode ~n_workers:4 stream in
              let b = run_stream ~mode ~n_workers:4 stream in
              if a.rr_fingerprint <> seq.rr_fingerprint then ok := false;
              if a.rr_rollbacks <> b.rr_rollbacks then det := false)
            [ Psmr.Executor.Pessimistic; Psmr.Executor.Optimistic ])
        [ 0; 10; 50 ])
    [ 1; 2; 3 ];
  (!ok, !det)

(* End-to-end: the executor behind Multi-Ring Paxos, deployed as the KV
   service deploys it (leases off, so every command is ordered; the
   replica, worker and tree sizes of the Chapter 6 runs).  One closed-loop
   run per executor mode — 64 chains of puts, each issued when the previous
   one answers, over 4096 hot keys — plus an open-loop run driven by the
   zipf/rate-curve workload generator.  Every slice drains before the
   replicas' trees are compared. *)
let e2e_config executor =
  { Kv.default_config with
    n_replicas = 2;
    n_workers = 4;
    executor;
    leases = false;
    key_range = 1_000_000 }

let n_e2e_clients = 64

(* Mean latency over every SLO class, weighted by count. *)
let lat_mean_ms sys =
  let rows = Kv.Slo.rows (Kv.slo sys) in
  let n = List.fold_left (fun a (r : Kv.Slo.row) -> a + r.count) 0 rows in
  let sum =
    List.fold_left
      (fun a (r : Kv.Slo.row) -> a +. (float_of_int r.count *. r.mean_ms))
      0.0 rows
  in
  if n = 0 then 0.0 else sum /. float_of_int n

let end_to_end () =
  Util.header "End-to-end (Multi-Ring Paxos + executor replicas)";
  Printf.printf "%-12s %-6s %10s %10s %10s %10s\n" "executor" "loop" "kcps"
    "lat(ms)" "rollbacks" "drops";
  let duration = 0.4 and warm = 0.15 and drain = 0.1 in
  let in_window now = now >= warm && now < duration in
  let kcps n = float_of_int n /. (duration -. warm) /. 1e3 in
  let row sys name loop kcps =
    let lat = lat_mean_ms sys in
    Printf.printf "%-12s %-6s %10.1f %10.2f %10d %10d\n" name loop kcps lat
      (Kv.rollbacks sys) (Kv.drops sys);
    Util.snap
      (Printf.sprintf "psmr/e2e/%s/%s" name loop)
      ~events_per_sec:(kcps *. 1000.0) ~lat_mean:lat
  in
  (* Closed loop: each chain issues its next put when the previous one
     answers, until the horizon.  A put the proposer window refuses would
     end its chain, so the bench reports drops (CI requires none). *)
  let closed executor name =
    let engine, net = Util.fresh ~seed:11 () in
    let sys = Kv.create net (e2e_config executor) ~n_clients:n_e2e_clients in
    let rng = Sim.Rng.create 12 in
    let completed = ref 0 in
    let rec chain () =
      let key = 1 + Sim.Rng.int rng 4096 in
      Kv.put sys ~key ~value:key ~k:(fun _ ->
          let now = Simnet.now net in
          if in_window now then incr completed;
          if now < duration then chain ())
    in
    for c = 0 to n_e2e_clients - 1 do
      ignore (Simnet.after net (0.001 +. (1.0e-5 *. float_of_int c)) chain)
    done;
    Sim.Engine.run engine ~until:(duration +. drain);
    let k = kcps !completed in
    row sys name "closed" k;
    (k, sys)
  in
  let dep_kcps, dep = closed Psmr.Executor.Pessimistic "depaware" in
  let opt_kcps, opt = closed Psmr.Executor.Optimistic "optimistic" in
  (* Open loop: a diurnal rate curve with a hot-key storm in the middle,
     standing in for an uncontrolled client population.  Completions are
     counted as the client proxies receive them. *)
  let engine, net = Util.fresh ~seed:11 () in
  let sys =
    Kv.create net (e2e_config Psmr.Executor.Optimistic) ~n_clients:n_e2e_clients
  in
  let completed = ref 0 in
  for c = 0 to n_e2e_clients - 1 do
    let p = Kv.client_proc sys c in
    let prev = Simnet.handler_of p in
    Simnet.set_handler p (fun m ->
        (match m.Simnet.payload with
        | Kv.KResp _ when in_window (Simnet.now net) -> incr completed
        | _ -> ());
        prev m)
  done;
  let wl =
    Smr.Workload.Open_loop.create ~zipf_s:0.8 ~read_pct:30
      ~hot_storm:(0.15, 0.1, 60)
      (Sim.Rng.create 21) ~key_range:1_000_000
      ~rate:(Smr.Workload.Open_loop.Diurnal { base = 20_000.0; peak = 40_000.0; period = 0.4 })
  in
  Kv.start_open sys wl ~until:duration;
  Sim.Engine.run engine ~until:(duration +. drain);
  let ol_kcps = kcps !completed in
  row sys "optimistic" "open" ol_kcps;
  let agree =
    List.for_all
      (fun s -> Kv.state_fingerprint_at s 0 = Kv.state_fingerprint_at s 1)
      [ dep; opt; sys ]
  in
  Printf.printf "replicas agree after every slice: %b\n" agree;
  (dep_kcps, opt_kcps, Kv.rollbacks opt, Kv.drops dep + Kv.drops opt, ol_kcps, agree)

let json_of_cell c =
  Printf.sprintf
    "{\"mode\":%S,\"workers\":%d,\"conflict_pct\":%d,\"commands\":%d,\
     \"makespan_s\":%.6f,\"speedup\":%.3f,\"rollbacks\":%d,\"conflicts\":%d,\
     \"p50_ms\":%.4f,\"p99_ms\":%.4f,\"util_pct\":%.1f,\"state_match\":%b}"
    c.mode c.n_workers c.conflict_pct c.commands c.makespan c.speedup
    c.rollbacks c.conflicts c.p50_ms c.p99_ms c.util_pct c.state_match

let run () =
  Util.header
    "P-SMR executor sweep (speedup vs sequential, rollbacks, p50/p99 ms)";
  let cells = sweep () in
  Printf.printf "%-12s %7s %9s %9s %9s %9s %9s %9s %6s\n" "mode" "workers"
    "conflict%" "speedup" "rollback" "p50(ms)" "p99(ms)" "util%" "state";
  List.iter
    (fun c ->
      Printf.printf "%-12s %7d %9d %9.2f %9d %9.3f %9.3f %9.1f %6s\n" c.mode
        c.n_workers c.conflict_pct c.speedup c.rollbacks c.p50_ms c.p99_ms
        c.util_pct
        (if c.state_match then "ok" else "DIVERGED");
      Util.snap
        (Printf.sprintf "psmr/%s/%dw/%dpct" c.mode c.n_workers c.conflict_pct)
        ~events_per_sec:(float_of_int c.commands /. c.makespan)
        ~counters:
          [ ("rollbacks", c.rollbacks); ("conflicts", c.conflicts);
            ("state_match", if c.state_match then 1 else 0) ])
    cells;
  let find mode workers pct =
    List.find
      (fun c -> c.mode = mode && c.n_workers = workers && c.conflict_pct = pct)
      cells
  in
  let pess = find "pessimistic" 4 10 and opt = find "optimistic" 4 10 in
  let opt50 = find "optimistic" 4 50 in
  let states_ok, det_ok = seed_checks () in
  let all_match = List.for_all (fun c -> c.state_match) cells && states_ok in
  Printf.printf
    "\n4-worker speedup at 10%% conflict: pessimistic %.2fx, optimistic %.2fx\n"
    pess.speedup opt.speedup;
  Printf.printf "optimistic rollback rate at 50%% conflict: %.3f\n"
    (float_of_int opt50.rollbacks /. float_of_int opt50.commands);
  Printf.printf "state matches sequential on every cell/seed: %b\n" all_match;
  Printf.printf "rollback counts deterministic by seed: %b\n" det_ok;
  let dep_kcps, opt_kcps, e2e_rb, e2e_drops, ol_kcps, e2e_agree = end_to_end () in
  let oc = open_out out_file in
  Printf.fprintf oc
    "{\n\
     \"bench\":\"psmr\",\n\
     \"commands_per_cell\":%d,\n\
     \"samples\":[\n\
     %s\n\
     ],\n\
     \"summary\":{\"pessimistic_speedup_4w_low_conflict\":%.3f,\
     \"optimistic_speedup_4w_low_conflict\":%.3f,\
     \"optimistic_rollback_rate_high_conflict\":%.4f,\
     \"optimistic_rollbacks_high_conflict\":%d,\
     \"optimistic_conflicts_high_conflict\":%d,\
     \"optimistic_state_matches_sequential\":%b,\
     \"rollbacks_deterministic\":%b,\
     \"e2e_depaware_kcps\":%.1f,\"e2e_optimistic_kcps\":%.1f,\
     \"e2e_rollbacks\":%d,\"e2e_closed_drops\":%d,\"e2e_openloop_kcps\":%.1f,\
     \"e2e_replicas_agree\":%b}\n\
     }\n"
    n_commands
    (String.concat ",\n" (List.map json_of_cell cells))
    pess.speedup opt.speedup
    (float_of_int opt50.rollbacks /. float_of_int opt50.commands)
    opt50.rollbacks opt50.conflicts all_match det_ok dep_kcps opt_kcps e2e_rb
    e2e_drops ol_kcps e2e_agree;
  close_out oc;
  Printf.printf "wrote %s\n%!" out_file
