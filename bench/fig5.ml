(* Chapter 5 experiments: Multi-Ring Paxos scalability and the Delta/M/lambda
   parameter studies. *)

type Simnet.payload += Pkt

let msg = 8192

(* --- Fig 5.1: In-memory vs Recoverable Ring Paxos --------------------------- *)

let fig5_1 () =
  Util.header "Fig 5.1 - In-memory vs Recoverable Ring Paxos: latency vs throughput";
  Printf.printf "%-12s %12s %12s %10s %10s\n" "mode" "offered" "thr(Mbps)" "lat(ms)"
    "coordCPU%";
  List.iter
    (fun (name, durability) ->
      List.iter
        (fun offered ->
          let engine, net = Util.fresh () in
          let rec_ = Abcast.Recorder.create engine in
          let cfg = { Ringpaxos.Mring.default_config with durability } in
          let mr =
            Ringpaxos.Mring.create net cfg ~n_proposers:2 ~n_learners:1
              ~learner_parts:(fun _ -> [ 0 ])
              ~deliver:(fun ~learner:_ ~inst:_ v ->
                Option.iter (Abcast.Recorder.value rec_) v)
          in
          let stop =
            Abcast.Loadgen.constant net ~rate_mbps:offered ~size:msg (fun sz ->
                ignore (Ringpaxos.Mring.submit mr ~proposer:0 ~size:sz Pkt);
                true)
          in
          Sim.Engine.run engine ~until:2.0;
          stop ();
          let cpu =
            Util.cpu_pct
              (Simnet.cpu_busy (Simnet.proc_node (Ringpaxos.Mring.coordinator_proc mr)))
              ~from:0.7 ~till:2.0
          in
          let thr = Abcast.Recorder.mbps rec_ ~from:0.7 ~till:2.0 in
          let lat = Abcast.Recorder.lat_trimmed_ms rec_ in
          Printf.printf "%-12s %12.0f %12.1f %10.2f %10.1f\n" name offered thr lat cpu;
          Util.snap
            (Printf.sprintf "fig5.1/%s/%.0fMbps" name offered)
            ~mbps:thr ~lat_mean:lat ~cpu_pct:cpu
            ~counters:(Ringpaxos.Mring.counters mr))
        [ 100.0; 200.0; 300.0; 400.0; 500.0; 700.0; 900.0 ])
    [ ("in-memory", Ringpaxos.Mring.Memory); ("recoverable", Ringpaxos.Mring.Async_disk) ]

(* --- Fig 5.2: one ring, many partitions — no scaling ------------------------- *)

let fig5_2 () =
  Util.header "Fig 5.2 - partitioned dummy service on ONE Ring Paxos instance";
  Printf.printf "%-12s %14s\n" "partitions" "total(Mbps)";
  List.iter
    (fun parts ->
      let engine, net = Util.fresh () in
      let rec_ = Abcast.Recorder.create engine in
      let cfg = { Ringpaxos.Mring.default_config with partitions = parts } in
      let mr =
        Ringpaxos.Mring.create net cfg ~n_proposers:2 ~n_learners:parts
          ~learner_parts:(fun l -> [ l ])
          ~deliver:(fun ~learner:_ ~inst:_ v -> Option.iter (Abcast.Recorder.value rec_) v)
      in
      let turn = ref 0 in
      let stop =
        Abcast.Loadgen.constant net ~rate_mbps:1500.0 ~size:msg (fun sz ->
            incr turn;
            ignore
              (Ringpaxos.Mring.submit mr ~proposer:(!turn mod 2) ~parts:[ !turn mod parts ]
                 ~size:sz Pkt);
            true)
      in
      Sim.Engine.run engine ~until:2.0;
      stop ();
      (* Aggregate service throughput = sum over partitions (each delivery
         callback above counts once per owning learner). *)
      let thr = Abcast.Recorder.mbps rec_ ~from:0.7 ~till:2.0 in
      Printf.printf "%-12d %14.1f\n" parts thr;
      Util.snap (Printf.sprintf "fig5.2/%dparts" parts) ~mbps:thr
        ~counters:(Ringpaxos.Mring.counters mr))
    [ 1; 2; 4; 8 ]

(* --- Fig 5.4/5.5: Multi-Ring Paxos scalability -------------------------------- *)

let run_multiring ?(durability = Ringpaxos.Mring.Memory) ~n_rings ~subs_all ~duration () =
  let engine, net = Util.fresh () in
  let rec_ = Abcast.Recorder.create engine in
  let n_learners = if subs_all then 1 else n_rings in
  let subs = if subs_all then fun _ -> List.init n_rings Fun.id else fun l -> [ l ] in
  let cfg =
    { Multiring.default_config with
      n_rings;
      lambda = 16_000.0;
      ring = { Ringpaxos.Mring.default_config with durability } }
  in
  let mr =
    Multiring.create net cfg ~n_learners ~subs ~proposers_per_ring:1
      ~deliver:(fun ~learner:_ ~group:_ it _ -> Abcast.Recorder.item rec_ it)
  in
  let stop =
    Abcast.Loadgen.constant net
      ~rate_mbps:(1000.0 *. float_of_int n_rings)
      ~size:msg
      (fun sz ->
        for g = 0 to n_rings - 1 do
          ignore (Multiring.multicast mr ~group:g ~proposer:0 ~size:sz Pkt)
        done;
        true)
  in
  Sim.Engine.run engine ~until:duration;
  stop ();
  ( Abcast.Recorder.mbps rec_ ~from:(duration /. 3.0) ~till:duration,
    Abcast.Recorder.lat_trimmed_ms rec_ )

let fig5_4 () =
  Util.header "Fig 5.4 - Multi-Ring Paxos scalability (one group per learner)";
  Printf.printf "%-22s %8s %14s %10s\n" "system" "rings" "total(Mbps)" "lat(ms)";
  List.iter
    (fun n ->
      let thr, lat = run_multiring ~n_rings:n ~subs_all:false ~duration:1.0 () in
      Printf.printf "%-22s %8d %14.1f %10.2f\n" "RAM Multi-Ring" n thr lat;
      Util.snap (Printf.sprintf "fig5.4/ram/%drings" n) ~mbps:thr ~lat_mean:lat)
    [ 1; 2; 4; 8 ];
  List.iter
    (fun n ->
      let thr, lat =
        run_multiring ~durability:Ringpaxos.Mring.Async_disk ~n_rings:n ~subs_all:false
          ~duration:1.5 ()
      in
      Printf.printf "%-22s %8d %14.1f %10.2f\n" "DISK Multi-Ring" n thr lat;
      Util.snap (Printf.sprintf "fig5.4/disk/%drings" n) ~mbps:thr ~lat_mean:lat)
    [ 1; 2; 4; 8 ];
  (* References: single Ring Paxos, LCR, Spread do not scale with groups. *)
  List.iter
    (fun (name, proto) ->
      let thr, _, lat = Fig3.run_proto proto 4 in
      Printf.printf "%-22s %8s %14.1f %10.2f\n" name "-" thr lat;
      Util.snap (Printf.sprintf "fig5.4/%s" name) ~mbps:thr ~lat_mean:lat)
    [ ("single M-Ring Paxos", Fig3.MRing); ("LCR", Fig3.Lcr); ("Spread", Fig3.Spread) ]

let fig5_5 () =
  Util.header "Fig 5.5 - learner subscribing to ALL groups";
  Printf.printf "%-22s %8s %14s %10s\n" "system" "rings" "learner(Mbps)" "lat(ms)";
  List.iter
    (fun (name, durability) ->
      List.iter
        (fun n ->
          let thr, lat =
            run_multiring ~durability ~n_rings:n ~subs_all:true ~duration:4.0 ()
          in
          Printf.printf "%-22s %8d %14.1f %10.2f\n" name n thr lat;
          Util.snap (Printf.sprintf "fig5.5/%s/%drings" name n) ~mbps:thr ~lat_mean:lat)
        [ 1; 2; 4 ])
    [ ("RAM Multi-Ring", Ringpaxos.Mring.Memory);
      ("DISK Multi-Ring", Ringpaxos.Mring.Async_disk) ]

(* --- ablation: gamma groups mapped onto delta rings (§5.2.4) ---------------- *)

let fig5_5b () =
  Util.header
    "Ablation (5.2.4) - 8 groups on fewer rings: single-group learner's waste";
  Printf.printf "%-8s %12s %14s %14s\n" "rings" "thr(Mbps)" "useful items" "foreign items";
  List.iter
    (fun n_rings ->
      let engine, net = Util.fresh () in
      let rec_ = Abcast.Recorder.create engine in
      let cfg =
        { Multiring.default_config with n_rings; n_groups = 8; lambda = 16_000.0 }
      in
      (* Learner 0 subscribes to group 0 only; a second learner takes all
         groups so every ring carries traffic. *)
      let subs = function 0 -> [ 0 ] | _ -> List.init 8 Fun.id in
      let mr =
        Multiring.create net cfg ~n_learners:2 ~subs ~proposers_per_ring:1
          ~deliver:(fun ~learner ~group:_ it _ ->
            if learner = 0 then Abcast.Recorder.item rec_ it)
      in
      let turn = ref 0 in
      let stop =
        Abcast.Loadgen.constant net ~rate_mbps:800.0 ~size:msg (fun sz ->
            incr turn;
            ignore (Multiring.multicast mr ~group:(!turn mod 8) ~proposer:0 ~size:sz Pkt);
            true)
      in
      Sim.Engine.run engine ~until:1.0;
      stop ();
      let thr = Abcast.Recorder.mbps rec_ ~from:0.4 ~till:1.0 in
      Printf.printf "%-8d %12.1f %14d %14d\n" n_rings thr (Abcast.Recorder.items rec_)
        (Multiring.foreign_items mr 0);
      Util.snap (Printf.sprintf "fig5.5b/%drings" n_rings) ~mbps:thr
        ~counters:
          [ ("useful_items", Abcast.Recorder.items rec_);
            ("foreign_items", Multiring.foreign_items mr 0) ])
    [ 8; 4; 2; 1 ]

(* --- Figs 5.6/5.7: Delta and M ------------------------------------------------ *)

let delta_m_run ~delta ~m ~offered =
  let engine, net = Util.fresh () in
  let rec_ = Abcast.Recorder.create engine in
  let cfg = { Multiring.default_config with n_rings = 2; delta; m; lambda = 16_000.0 } in
  let mr =
    Multiring.create net cfg ~n_learners:1
      ~subs:(fun _ -> [ 0; 1 ])
      ~proposers_per_ring:1
      ~deliver:(fun ~learner:_ ~group:_ it _ -> Abcast.Recorder.item rec_ it)
  in
  let stop =
    Abcast.Loadgen.constant net ~rate_mbps:offered ~size:msg (fun sz ->
        ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:sz Pkt);
        ignore (Multiring.multicast mr ~group:1 ~proposer:0 ~size:sz Pkt);
        true)
  in
  Sim.Engine.run engine ~until:1.5;
  stop ();
  let coord_cpu =
    Util.cpu_pct
      (Simnet.cpu_busy (Simnet.proc_node (Ringpaxos.Mring.coordinator_proc (Multiring.ring mr 0))))
      ~from:0.5 ~till:1.5
  in
  ( Abcast.Recorder.mbps rec_ ~from:0.5 ~till:1.5,
    Abcast.Recorder.lat_trimmed_ms rec_,
    coord_cpu )

let fig5_6 () =
  Util.header "Fig 5.6 - impact of Delta (2 rings, learner on both)";
  Printf.printf "%-10s %10s %12s %10s %10s\n" "Delta" "offered" "thr(Mbps)" "lat(ms)"
    "coordCPU%";
  List.iter
    (fun delta ->
      List.iter
        (fun offered ->
          let thr, lat, cpu = delta_m_run ~delta ~m:1 ~offered in
          Printf.printf "%-10.3f %10.0f %12.1f %10.2f %10.1f\n" (delta *. 1e3) offered thr
            lat cpu;
          Util.snap
            (Printf.sprintf "fig5.6/delta%.3fms/%.0fMbps" (delta *. 1e3) offered)
            ~mbps:thr ~lat_mean:lat ~cpu_pct:cpu)
        [ 100.0; 400.0; 800.0 ])
    [ 1.0e-3; 1.0e-2; 1.0e-1 ]

let fig5_7 () =
  Util.header "Fig 5.7 - impact of M (2 rings, learner on both)";
  Printf.printf "%-6s %10s %12s %10s %10s\n" "M" "offered" "thr(Mbps)" "lat(ms)" "lrnCPU%";
  List.iter
    (fun m ->
      List.iter
        (fun offered ->
          let thr, lat, cpu = delta_m_run ~delta:1.0e-3 ~m ~offered in
          Printf.printf "%-6d %10.0f %12.1f %10.2f %10.1f\n" m offered thr lat cpu;
          Util.snap
            (Printf.sprintf "fig5.7/m%d/%.0fMbps" m offered)
            ~mbps:thr ~lat_mean:lat ~cpu_pct:cpu)
        [ 100.0; 400.0; 800.0 ])
    [ 1; 10; 100 ]

(* --- Figs 5.8-5.10: lambda timelines ------------------------------------------ *)

let lambda_timeline ~fig ~name ~lambda ~load =
  let engine, net = Util.fresh () in
  let lat = Sim.Stats.Latency.create () in
  let recent = ref [] in
  let cfg = { Multiring.default_config with n_rings = 2; lambda } in
  let mr =
    Multiring.create net cfg ~n_learners:1
      ~subs:(fun _ -> [ 0; 1 ])
      ~proposers_per_ring:1
      ~deliver:(fun ~learner:_ ~group:_ (it : Paxos.Value.item) _ ->
        let l = (Sim.Engine.now engine -. it.born) *. 1e3 in
        Sim.Stats.Latency.add lat l;
        recent := (Sim.Engine.now engine, l) :: !recent)
  in
  let stop = load net mr in
  Sim.Engine.run engine ~until:6.0;
  stop ();
  Printf.printf "  lambda=%s: " name;
  (* average latency per 2s window *)
  List.iter
    (fun w ->
      let xs = List.filter (fun (t, _) -> t >= w -. 1.2 && t < w) !recent in
      let avg =
        if xs = [] then 0.0
        else List.fold_left (fun a (_, l) -> a +. l) 0.0 xs /. float_of_int (List.length xs)
      in
      Printf.printf "t<%.0fs:%6.1fms " w avg;
      Util.snap
        (Printf.sprintf "%s/%s/t%.1f" fig name w)
        ~lat_mean:avg
        ~counters:[ ("buffered", Multiring.learner_buffer mr 0) ])
    [ 1.2; 2.4; 3.6; 4.8; 6.0 ];
  Printf.printf " halted=%b buffered=%d\n" (Multiring.learner_halted mr 0)
    (Multiring.learner_buffer mr 0)

let staircase_equal net mr =
  (* Both rings ramp 100 -> 400 Mbps in steps (Fig 5.8's staircase). *)
  Abcast.Loadgen.staircase net
    ~steps:[ (0.0, 100.0); (1.5, 200.0); (3.0, 300.0); (4.5, 400.0) ]
    ~size:msg
    (fun sz ->
      ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:sz Pkt);
      ignore (Multiring.multicast mr ~group:1 ~proposer:0 ~size:sz Pkt);
      true)

let staircase_skewed net mr =
  (* Ring 0 at twice ring 1's rate (Fig 5.9). *)
  Abcast.Loadgen.staircase net
    ~steps:[ (0.0, 100.0); (1.5, 200.0); (3.0, 300.0); (4.5, 400.0) ]
    ~size:msg
    (fun sz ->
      ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:sz Pkt);
      ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:sz Pkt);
      ignore (Multiring.multicast mr ~group:1 ~proposer:0 ~size:sz Pkt);
      true)

let oscillating net mr =
  (* Rates oscillate with a 2x average skew (Fig 5.10). *)
  Abcast.Loadgen.oscillating net ~period:1.0 ~low_mbps:100.0 ~high_mbps:500.0 ~size:msg
    (fun sz ->
      ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:sz Pkt);
      ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:sz Pkt);
      ignore (Multiring.multicast mr ~group:1 ~proposer:0 ~size:sz Pkt);
      true)

(* Message rate of one 8 KB stream at R Mbps is R*1e6/65536 msg/s. *)
let lam rate_mbps = rate_mbps *. 1e6 /. float_of_int (msg * 8)

let fig5_8 () =
  Util.header "Fig 5.8 - impact of lambda, equal constant rates (staircase to 400 Mbps)";
  lambda_timeline ~fig:"fig5.8" ~name:"0 (no skips)" ~lambda:0.0 ~load:staircase_equal;
  lambda_timeline ~fig:"fig5.8" ~name:"1000 msg/s" ~lambda:1000.0 ~load:staircase_equal;
  lambda_timeline ~fig:"fig5.8" ~name:"5000 msg/s" ~lambda:5000.0 ~load:staircase_equal;
  Printf.printf "  (reference: 400 Mbps of 8 KB messages = %.0f msg/s)\n" (lam 400.0)

let fig5_9 () =
  Util.header "Fig 5.9 - impact of lambda, ring 0 at twice ring 1's rate";
  lambda_timeline ~fig:"fig5.9" ~name:"1000 msg/s" ~lambda:1000.0 ~load:staircase_skewed;
  lambda_timeline ~fig:"fig5.9" ~name:"5000 msg/s" ~lambda:5000.0 ~load:staircase_skewed;
  lambda_timeline ~fig:"fig5.9" ~name:"9000 msg/s" ~lambda:9000.0 ~load:staircase_skewed

let fig5_10 () =
  Util.header "Fig 5.10 - impact of lambda, oscillating rates";
  lambda_timeline ~fig:"fig5.10" ~name:"5000 msg/s" ~lambda:5000.0 ~load:oscillating;
  lambda_timeline ~fig:"fig5.10" ~name:"9000 msg/s" ~lambda:9000.0 ~load:oscillating;
  lambda_timeline ~fig:"fig5.10" ~name:"12000 msg/s" ~lambda:12000.0 ~load:oscillating

(* --- Fig 5.11: coordinator failure --------------------------------------------- *)

let fig5_11 () =
  Util.header "Fig 5.11 - ring-0 coordinator failure at t=10s";
  Printf.printf
    "(failure detection deliberately slowed to ~2s, as the paper forces a 3s restart)\n";
  let engine, net = Util.fresh () in
  let recv = Array.init 2 (fun _ -> Sim.Stats.Rate.create ()) in
  let delv = Sim.Stats.Rate.create () in
  let cfg =
    { Multiring.default_config with
      n_rings = 2;
      lambda = 8000.0;
      ring = { Ringpaxos.Mring.default_config with hb_timeout = 2.0 } }
  in
  let mr =
    Multiring.create net cfg ~n_learners:1
      ~subs:(fun _ -> [ 0; 1 ])
      ~proposers_per_ring:1
      ~deliver:(fun ~learner:_ ~group:_ (it : Paxos.Value.item) _ ->
        Sim.Stats.Rate.add delv ~now:(Sim.Engine.now engine) ~bytes:it.isize)
  in
  (* Track per-ring receive throughput through the ring-level recorders. *)
  let last = Array.make 2 0 in
  let stop_probe =
    Simnet.every net ~period:0.5 (fun () ->
        for g = 0 to 1 do
          let now_count = Multiring.received mr ~learner:0 ~group:g in
          Sim.Stats.Rate.add recv.(g) ~now:(Sim.Engine.now engine)
            ~bytes:((now_count - last.(g)) * msg);
          last.(g) <- now_count
        done)
  in
  let stop =
    Abcast.Loadgen.constant net ~rate_mbps:500.0 ~size:msg (fun sz ->
        ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:sz Pkt);
        ignore (Multiring.multicast mr ~group:1 ~proposer:0 ~size:sz Pkt);
        true)
  in
  ignore (Simnet.after net 10.0 (fun () -> Multiring.kill_ring_coordinator mr 0));
  Sim.Engine.run engine ~until:20.0;
  stop ();
  stop_probe ();
  Printf.printf "%-6s %14s %14s %16s\n" "t(s)" "recv0(Mbps)" "recv1(Mbps)" "deliver(Mbps)";
  List.iter
    (fun t ->
      let deliver = Sim.Stats.Rate.mbps delv ~from:(t -. 1.0) ~till:t in
      Printf.printf "%-6.1f %14.1f %14.1f %16.1f\n" t
        (Sim.Stats.Rate.mbps recv.(0) ~from:(t -. 1.0) ~till:t)
        (Sim.Stats.Rate.mbps recv.(1) ~from:(t -. 1.0) ~till:t)
        deliver;
      Util.snap (Printf.sprintf "fig5.11/t%.1f" t) ~mbps:deliver)
    [ 5.0; 8.0; 9.0; 10.0; 11.0; 12.0; 13.0; 14.0; 15.0; 16.0; 18.0; 20.0 ]

let all () =
  fig5_1 ();
  fig5_2 ();
  fig5_4 ();
  fig5_5 ();
  fig5_5b ();
  fig5_6 ();
  fig5_7 ();
  fig5_8 ();
  fig5_9 ();
  fig5_10 ();
  fig5_11 ()
