(* Chapter 4 experiments: the cost of replication, speculative execution and
   state partitioning over the replicated B+-tree service. *)

module W = Smr.Workload
module BS = Smr.Btree_service

let key_range = 100_000
let query_span = 1000
let duration = 1.2
let warm = 0.5

(* One service per replica, holding only its partition's keys (dense
   population, as in the paper's 12M-key trees). *)
let dense_service ~n_parts p =
  let bs = BS.create () in
  let plo = (p * (key_range + 1) / n_parts) + if p = 0 then 1 else 0 in
  let phi = ((p + 1) * (key_range + 1) / n_parts) - 1 in
  for k = Stdlib.max 1 plo to phi do
    ignore (Btree.insert bs.tree k k)
  done;
  bs

let run_cs kind clients =
  let engine, net = Util.fresh () in
  let wl = W.create ~query_span (Sim.Rng.create 5) kind ~key_range ~n_partitions:1 in
  let bs = dense_service ~n_parts:1 0 in
  let cs =
    Smr.Cs.create net ~n_threads:1 ~service:bs.service ~n_clients:clients
      ~gen:(fun _ -> W.next wl)
  in
  Smr.Cs.start cs;
  Sim.Engine.run engine ~until:duration;
  let m = Smr.Cs.metrics cs in
  (Smr.Metrics.kcps m ~from:warm ~till:duration, Smr.Metrics.lat_mean_ms m)

let run_smr ?(partitions = 1) ?(replicas = 1) ?(speculative = false) ?(cross_pct = 0)
    ?(batch = true) kind clients =
  let engine, net = Util.fresh () in
  let wl =
    W.create ~cross_pct ~query_span (Sim.Rng.create 5) kind ~key_range
      ~n_partitions:partitions
  in
  let services =
    Array.init (partitions * replicas) (fun l -> dense_service ~n_parts:partitions (l / replicas))
  in
  let mring =
    { Ringpaxos.Mring.default_config with
      partitions;
      batch_bytes = (if batch then 8192 else 0) }
  in
  let cfg = { Smr.System.mring; replicas_per_partition = replicas; speculative } in
  let sys =
    Smr.System.create net cfg
      ~services:(fun l -> services.(l).service)
      ~n_clients:clients
      ~gen:(fun _ -> W.next wl)
  in
  Smr.System.start sys;
  Sim.Engine.run engine ~until:duration;
  let m = Smr.System.metrics sys in
  (Smr.Metrics.kcps m ~from:warm ~till:duration, Smr.Metrics.lat_mean_ms m, sys)

let workloads =
  [ ("Queries", W.Queries, true);
    ("Ins/Del(single)", W.Ins_del_single, false);
    ("Ins/Del(batch)", W.Ins_del_batch, true) ]

let fig4_3 () =
  Util.header "Fig 4.1/4.3 - client-server (CS) vs SMR: Kcps and latency (ms)";
  Printf.printf "%-16s %8s %10s %10s %10s %10s\n" "workload" "clients" "CS-kcps" "CS-lat"
    "SMR-kcps" "SMR-lat";
  List.iter
    (fun (name, kind, batch) ->
      List.iter
        (fun c ->
          let ck, cl = run_cs kind c in
          let sk, sl, _ = run_smr ~batch kind c in
          Printf.printf "%-16s %8d %10.1f %10.2f %10.1f %10.2f\n" name c ck cl sk sl;
          Util.snap (Printf.sprintf "fig4.3/%s/cs/%d" name c)
            ~events_per_sec:(ck *. 1000.0) ~lat_mean:cl;
          Util.snap (Printf.sprintf "fig4.3/%s/smr/%d" name c)
            ~events_per_sec:(sk *. 1000.0) ~lat_mean:sl)
        [ 4; 40; 160 ])
    workloads

let fig4_4 () =
  Util.header "Fig 4.4 - CS vs SMR with 1/2/4/8 replicas (120 clients)";
  Printf.printf "%-16s %10s %10s %10s\n" "workload" "replicas" "kcps" "lat(ms)";
  List.iter
    (fun (name, kind, batch) ->
      let ck, cl = run_cs kind 120 in
      Printf.printf "%-16s %10s %10.1f %10.2f\n" name "CS" ck cl;
      Util.snap (Printf.sprintf "fig4.4/%s/cs" name) ~events_per_sec:(ck *. 1000.0)
        ~lat_mean:cl;
      List.iter
        (fun r ->
          let sk, sl, _ = run_smr ~replicas:r ~batch kind 120 in
          Printf.printf "%-16s %10d %10.1f %10.2f\n" name r sk sl;
          Util.snap (Printf.sprintf "fig4.4/%s/%dreplicas" name r)
            ~events_per_sec:(sk *. 1000.0) ~lat_mean:sl)
        [ 1; 2; 4; 8 ])
    workloads

let spec_sweep label kind clients_list =
  Printf.printf "%-9s %8s %12s %12s %12s %12s\n" "replicas" "clients" "smr-kcps" "smr-lat"
    "spec-kcps" "spec-lat";
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          (* Each variant runs under its own tracer so the --json rows
             carry the per-stage latency decomposition of that run. *)
          let sctrs = ref [] and pctrs = ref [] in
          let sk, sl, _ =
            Util.traced (fun tr ->
                let res = run_smr ~replicas:r kind c in
                sctrs := Trace.decomp_counters tr;
                res)
          in
          let pk, pl, _ =
            Util.traced (fun tr ->
                let res = run_smr ~replicas:r ~speculative:true kind c in
                pctrs := Trace.decomp_counters tr;
                res)
          in
          Printf.printf "%-9d %8d %12.1f %12.2f %12.1f %12.2f\n" r c sk sl pk pl;
          Util.snap (Printf.sprintf "%s/smr/%dr/%dc" label r c)
            ~events_per_sec:(sk *. 1000.0) ~lat_mean:sl ~counters:!sctrs;
          Util.snap (Printf.sprintf "%s/spec/%dr/%dc" label r c)
            ~events_per_sec:(pk *. 1000.0) ~lat_mean:pl ~counters:!pctrs)
        clients_list)
    [ 1; 2; 4; 8 ]

let fig4_5 () =
  Util.header "Fig 4.5 - speculative execution, Queries workload";
  spec_sweep "fig4.5" W.Queries [ 4; 40 ]

let fig4_6 () =
  Util.header "Fig 4.6 - speculative execution, Ins/Del (batch) workload";
  spec_sweep "fig4.6" W.Ins_del_batch [ 20; 160 ]

let fig4_7 () =
  Util.header "Fig 4.7 - state partitioning (2 replicas/partition, no cross-partition)";
  Printf.printf "%-16s %12s %10s %10s %10s\n" "workload" "partitions" "kcps" "lat(ms)"
    "speedup";
  (* Enough clients to saturate even the 4-partition deployments. *)
  List.iter
    (fun (name, kind, clients) ->
      let base, _, _ = run_smr ~replicas:2 kind clients in
      List.iter
        (fun p ->
          let k, l, _ = run_smr ~partitions:p ~replicas:2 kind clients in
          Printf.printf "%-16s %12d %10.1f %10.2f %9.1fx\n" name p k l (k /. base);
          Util.snap (Printf.sprintf "fig4.7/%s/%dparts" name p)
            ~events_per_sec:(k *. 1000.0) ~lat_mean:l)
        [ 1; 2; 4 ])
    [ ("Queries", W.Queries, 160); ("Ins/Del(batch)", W.Ins_del_batch, 500) ]

let cross_partition_figure label ~replicas =
  Printf.printf "%-8s %8s %10s %10s %12s %12s\n" "cross%" "clients" "kcps" "lat(ms)"
    "execCPU%" "respCPU%";
  List.iter
    (fun cross ->
      List.iter
        (fun c ->
          let k, l, sys = run_smr ~partitions:2 ~replicas ~cross_pct:cross W.Queries c in
          let exec = Smr.System.exec_utilization sys ~learner:0 ~from:warm ~till:duration in
          let resp =
            Util.cpu_pct
              (Simnet.cpu_busy (Simnet.proc_node (Smr.System.replica_proc sys ~learner:0)))
              ~from:warm ~till:duration
          in
          Printf.printf "%-8d %8d %10.1f %10.2f %12.1f %12.1f\n" cross c k l exec resp;
          Util.snap (Printf.sprintf "%s/%dcross/%dc" label cross c)
            ~events_per_sec:(k *. 1000.0) ~lat_mean:l ~cpu_pct:exec)
        [ 60; 200 ])
    [ 0; 25; 50; 75; 100 ]

let fig4_8 () =
  Util.header "Fig 4.8 - cross-partition queries, 2 partitions x 2 replicas";
  cross_partition_figure "fig4.8" ~replicas:2

let fig4_9 () =
  Util.header "Fig 4.9 - cross-partition queries, 2 partitions x 3 replicas";
  cross_partition_figure "fig4.9" ~replicas:3

let fig4_10 () =
  (* Moderate load: at saturation the executor queue dwarfs the ordering
     delay and speculation has no window of opportunity (§4.2.1). *)
  Util.header "Fig 4.10 - speculation + partitioning (2x2, Queries, 24 clients)";
  Printf.printf "%-8s %14s %14s %12s %12s\n" "cross%" "plain-kcps" "spec-kcps" "d-thr(%)"
    "d-lat(%)";
  List.iter
    (fun cross ->
      let k0, l0, _ = run_smr ~partitions:2 ~replicas:2 ~cross_pct:cross W.Queries 24 in
      let k1, l1, _ =
        run_smr ~partitions:2 ~replicas:2 ~cross_pct:cross ~speculative:true W.Queries 24
      in
      Printf.printf "%-8d %14.1f %14.1f %12.1f %12.1f\n" cross k0 k1
        ((k1 -. k0) /. k0 *. 100.0)
        ((l0 -. l1) /. l0 *. 100.0);
      Util.snap (Printf.sprintf "fig4.10/plain/%dcross" cross)
        ~events_per_sec:(k0 *. 1000.0) ~lat_mean:l0;
      Util.snap (Printf.sprintf "fig4.10/spec/%dcross" cross)
        ~events_per_sec:(k1 *. 1000.0) ~lat_mean:l1)
    [ 0; 25; 50; 75; 100 ]

let all () =
  fig4_3 ();
  fig4_4 ();
  fig4_5 ();
  fig4_6 ();
  fig4_7 ();
  fig4_8 ();
  fig4_9 ();
  fig4_10 ()
