(* Chapter 3 experiments: communication patterns, Ring Paxos versus other
   atomic broadcast protocols, and the M-Ring/U-Ring parameter studies. *)

type Simnet.payload += Pkt of int

let pkt = 8192

(* --- Fig 3.2: one-to-many — unicast vs multicast vs pipeline -------------- *)

let one_to_many strategy n_receivers =
  let engine, net = Util.fresh () in
  let sender_node = Simnet.add_node net "sender" in
  let sender = Simnet.add_proc net sender_node "sender" in
  let receivers =
    Array.init n_receivers (fun i ->
        let nd = Simnet.add_node net (Printf.sprintf "r%d" i) in
        Simnet.add_proc net nd (Printf.sprintf "r%d" i))
  in
  let group = Simnet.new_group net "g" in
  Array.iter (fun r -> Simnet.join group r) receivers;
  (* Receiver 0's delivered bytes stand for "throughput per receiver". *)
  let send_packet () =
    match strategy with
    | `Unicast ->
        Array.iter (fun r -> Simnet.send net ~src:sender ~dst:r ~size:pkt (Pkt 0)) receivers
    | `Multicast -> Simnet.mcast net ~src:sender group ~size:pkt (Pkt 0)
    | `Pipeline ->
        (* Sender pushes to the first receiver; each forwards to its
           successor (handlers installed below). *)
        Simnet.send net ~src:sender ~dst:receivers.(0) ~size:pkt (Pkt 0)
  in
  if strategy = `Pipeline then
    Array.iteri
      (fun i r ->
        Simnet.set_handler r (fun m ->
            if i + 1 < n_receivers then
              Simnet.send net ~src:r ~dst:receivers.(i + 1) ~size:m.size m.payload))
      receivers;
  (* Offer 1 Gbps of application packets. *)
  let stop =
    Simnet.every net ~period:(float_of_int (pkt * 8) /. 1.0e9) (fun () -> send_packet ())
  in
  Sim.Engine.run engine ~until:2.0;
  stop ();
  let thr =
    Sim.Stats.Rate.mbps (Simnet.recv_rate receivers.(0)) ~from:0.5 ~till:2.0
  in
  let cpu = Util.cpu_pct (Simnet.cpu_busy sender_node) ~from:0.5 ~till:2.0 in
  let sname =
    match strategy with `Unicast -> "unicast" | `Multicast -> "multicast" | `Pipeline -> "pipeline"
  in
  Util.snapshot
    (Sim.Stats.Snapshot.make
       ~rate:(Simnet.recv_rate receivers.(0))
       ~busy:(Simnet.cpu_busy sender_node)
       ~label:(Printf.sprintf "fig3.2/%s/%d" sname n_receivers)
       ~from:0.5 ~till:2.0 ());
  (thr, cpu)

let fig3_2 () =
  Util.header "Fig 3.2 - one-to-many: throughput/receiver (Mbps) and sender CPU (%)";
  Printf.printf "%-10s %10s %10s %10s %10s %10s %10s\n" "receivers" "uni-thr" "uni-cpu"
    "mc-thr" "mc-cpu" "pipe-thr" "pipe-cpu";
  List.iter
    (fun n ->
      let ut, uc = one_to_many `Unicast n in
      let mt, mc = one_to_many `Multicast n in
      let pt, pc = one_to_many `Pipeline n in
      Printf.printf "%-10d %10.0f %10.0f %10.0f %10.0f %10.0f %10.0f\n" n ut uc mt mc pt pc)
    [ 2; 5; 10; 15; 20; 25 ]

(* --- Fig 3.3: multicast loss vs aggregate rate and #senders ---------------- *)

let mcast_loss n_senders rate_mbps =
  let engine, net = Util.fresh () in
  let group = Simnet.new_group net "g" in
  for i = 0 to 13 do
    let nd = Simnet.add_node net (Printf.sprintf "r%d" i) in
    Simnet.join group (Simnet.add_proc net nd (Printf.sprintf "r%d" i))
  done;
  let senders =
    Array.init n_senders (fun i ->
        let nd = Simnet.add_node net (Printf.sprintf "s%d" i) in
        Simnet.add_proc net nd (Printf.sprintf "s%d" i))
  in
  let per_sender = rate_mbps /. float_of_int n_senders in
  let stops =
    Array.map
      (fun s ->
        Simnet.every net ~period:(float_of_int (pkt * 8) /. (per_sender *. 1e6)) (fun () ->
            Simnet.mcast net ~src:s group ~size:pkt (Pkt 0)))
      senders
  in
  Sim.Engine.run engine ~until:2.0;
  Array.iter (fun stop -> stop ()) stops;
  let sent = Simnet.mcast_packets net * 14 in
  if sent = 0 then 0.0
  else 100.0 *. float_of_int (Simnet.switch_drops net) /. float_of_int sent

let fig3_3 () =
  Util.header "Fig 3.3 - ip-multicast loss (%) vs aggregate rate, 14 receivers";
  Printf.printf "%-12s %10s %10s %10s\n" "rate(Mbps)" "1 sender" "2 senders" "5 senders";
  List.iter
    (fun rate ->
      let l1 = mcast_loss 1 rate and l2 = mcast_loss 2 rate and l5 = mcast_loss 5 rate in
      Printf.printf "%-12.0f %10.2f %10.2f %10.2f\n" rate l1 l2 l5;
      List.iter
        (fun (n, loss) ->
          Util.snap
            (Printf.sprintf "fig3.3/%dsenders/%.0fMbps" n rate)
            ~mbps:rate
            ~counters:[ ("loss_basis_points", int_of_float (loss *. 100.0)) ])
        [ (1, l1); (2, l2); (5, l5) ])
    [ 200.0; 400.0; 600.0; 800.0; 850.0; 900.0; 950.0; 1000.0 ]

(* --- Fig 3.4: many-to-one — pipeline vs unicast ----------------------------- *)

let many_to_one strategy size =
  let engine, net = Util.fresh () in
  let coord_node = Simnet.add_node net "coord" in
  let coord = Simnet.add_proc net coord_node "coord" in
  let acc_nodes = Array.init 4 (fun i -> Simnet.add_node net (Printf.sprintf "a%d" i)) in
  let accs = Array.mapi (fun i nd -> Simnet.add_proc net nd (Printf.sprintf "a%d" i)) acc_nodes in
  let receive_count = ref 0 in
  Simnet.set_handler coord (fun _ -> incr receive_count);
  (match strategy with
  | `Unicast -> ()
  | `Pipeline ->
      (* Acceptor i forwards (with batching: sizes accumulate) to i+1; the
         last sends to the coordinator. *)
      Array.iteri
        (fun i a ->
          Simnet.set_handler a (fun m ->
              let dst = if i + 1 < 4 then accs.(i + 1) else coord in
              Simnet.send net ~src:a ~dst ~size:(m.size + size) m.payload))
        accs);
  (* Each acceptor originates messages at its share of 1 Gbps. *)
  let per_acc = 0.9e9 /. 4.0 in
  let origin i =
    match strategy with
    | `Unicast -> Simnet.send net ~src:accs.(i) ~dst:coord ~size (Pkt i)
    | `Pipeline ->
        (* Only the head originates; the body grows along the chain. *)
        if i = 0 then Simnet.send net ~src:accs.(0) ~dst:accs.(1) ~size (Pkt 0)
  in
  let stops =
    Array.init 4 (fun i ->
        Simnet.every net ~period:(float_of_int (size * 8) /. per_acc) (fun () -> origin i))
  in
  Sim.Engine.run engine ~until:2.0;
  Array.iter (fun s -> s ()) stops;
  let thr = Sim.Stats.Rate.mbps (Simnet.recv_rate coord) ~from:0.5 ~till:2.0 in
  let insts = Sim.Stats.Rate.events_per_sec (Simnet.recv_rate coord) ~from:0.5 ~till:2.0 in
  let coord_cpu = Util.cpu_pct (Simnet.cpu_busy coord_node) ~from:0.5 ~till:2.0 in
  let acc_cpu = Util.cpu_pct (Simnet.cpu_busy acc_nodes.(2)) ~from:0.5 ~till:2.0 in
  (thr, insts, coord_cpu, acc_cpu)

let fig3_4 () =
  Util.header "Fig 3.4 - many-to-one: pipeline vs unicast (4 acceptors -> coordinator)";
  Printf.printf "%-8s %-9s %12s %12s %10s %10s\n" "size" "strategy" "thr(Mbps)" "inst/s"
    "coordCPU%" "accCPU%";
  List.iter
    (fun size ->
      List.iter
        (fun (name, s) ->
          let thr, insts, cc, ac = many_to_one s size in
          Printf.printf "%-8d %-9s %12.0f %12.0f %10.0f %10.0f\n" size name thr insts cc ac;
          Util.snap
            (Printf.sprintf "fig3.4/%s/%d" name size)
            ~mbps:thr ~events_per_sec:insts ~cpu_pct:cc)
        [ ("unicast", `Unicast); ("pipeline", `Pipeline) ])
    [ 512; 1024; 2048; 4096; 8192 ]

(* --- protocol throughput helpers (Figs 3.7/3.8, Table 3.2) ------------------ *)

type proto = MRing | URing | Lcr | Libpaxos | Pfsb | SPaxos | Spread

let proto_name = function
  | MRing -> "M-Ring Paxos"
  | URing -> "U-Ring Paxos"
  | Lcr -> "LCR"
  | Libpaxos -> "Libpaxos"
  | Pfsb -> "PFSB"
  | SPaxos -> "S-Paxos"
  | Spread -> "Spread"

let best_size = function
  | MRing -> Abcast.Presets.message_size `Mring
  | URing -> Abcast.Presets.message_size `Uring
  | Lcr -> Abcast.Presets.message_size `Lcr
  | Libpaxos -> Abcast.Presets.message_size `Libpaxos
  | Pfsb -> Abcast.Presets.message_size `Pfsb
  | SPaxos -> Abcast.Presets.message_size `Spaxos
  | Spread -> Abcast.Presets.message_size `Spread

(* One run of [proto] with [n] receivers at the given offered load; returns
   (Mbps per receiver, messages per second, latency ms). *)
let run_proto_at ?(durability = Ringpaxos.Mring.Memory) ?(duration = 1.5) ?msg_size
    ?mring_f ~offered_mbps proto n =
  let engine, net = Util.fresh () in
  let rec_ = Abcast.Recorder.create engine in
  let size = match msg_size with Some s -> s | None -> best_size proto in
  let record_value v = Abcast.Recorder.value rec_ v in
  let stop =
    match proto with
    | MRing ->
        let f = Option.value ~default:Ringpaxos.Mring.default_config.f mring_f in
        let cfg = { Ringpaxos.Mring.default_config with durability; f } in
        let mr =
          Ringpaxos.Mring.create net cfg ~n_proposers:2 ~n_learners:(Stdlib.max 1 n)
            ~learner_parts:(fun _ -> [ 0 ])
            ~deliver:(fun ~learner ~inst:_ v ->
              if learner = 0 then Option.iter record_value v)
        in
        let turn = ref 0 in
        Abcast.Loadgen.constant net ~rate_mbps:offered_mbps ~size (fun sz ->
            incr turn;
            ignore (Ringpaxos.Mring.submit mr ~proposer:(!turn land 1) ~size:sz (Pkt 0));
            true)
    | URing ->
        let cfg = { Ringpaxos.Uring.default_config with durability } in
        let n = Stdlib.max 5 n in
        let ur =
          Ringpaxos.Uring.create net cfg ~positions:(Ringpaxos.Uring.standard_positions ~n)
            ~deliver:(fun ~learner ~inst:_ v -> if learner = 0 then record_value v)
        in
        let turn = ref 0 in
        Abcast.Loadgen.constant net ~rate_mbps:offered_mbps ~size (fun sz ->
            incr turn;
            ignore (Ringpaxos.Uring.submit ur ~proposer:(!turn mod n) ~size:sz (Pkt 0));
            true)
    | Lcr ->
        let cfg = { Abcast.Lcr.n = Stdlib.max 2 n; durability } in
        let lcr =
          Abcast.Lcr.create net cfg ~deliver:(fun ~learner v ->
              if learner = 0 then record_value v)
        in
        let turn = ref 0 in
        Abcast.Loadgen.constant net ~rate_mbps:offered_mbps ~size (fun sz ->
            incr turn;
            Abcast.Lcr.broadcast lcr ~from:(!turn mod cfg.n) ~size:sz (Pkt 0))
    | Libpaxos | Pfsb ->
        let cfg =
          if proto = Libpaxos then Abcast.Presets.libpaxos else Abcast.Presets.pfsb
        in
        let bp =
          Paxos.Basic.create net cfg ~n_acceptors:3 ~n_standby:0 ~n_proposers:1
            ~n_learners:(Stdlib.max 1 n)
            ~deliver:(fun ~learner ~inst:_ v -> if learner = 0 then record_value v)
        in
        Abcast.Loadgen.constant net
          ~rate_mbps:(Stdlib.min offered_mbps 80.0)
          ~size
          (fun sz ->
            ignore (Paxos.Basic.submit bp ~proposer:0 ~size:sz (Pkt 0));
            true)
    | SPaxos ->
        let sp =
          Abcast.Spaxos.create net Abcast.Spaxos.default_config ~deliver:(fun ~learner v ->
              if learner = 0 then record_value v)
        in
        let turn = ref 0 in
        (* S-Paxos saturates its replicas' CPU near ~350 Mbps; over-driving
           it collapses the leader's ordering loop. *)
        Abcast.Loadgen.constant net ~rate_mbps:(Stdlib.min offered_mbps 310.0) ~size (fun sz ->
            incr turn;
            ignore (Abcast.Spaxos.submit sp ~replica:(!turn mod 3) ~size:sz (Pkt 0));
            true)
    | Spread ->
        let tot =
          Abcast.Totem.create net Abcast.Totem.default_config ~deliver:(fun ~learner v ->
              if learner = 0 then record_value v)
        in
        let turn = ref 0 in
        Abcast.Loadgen.constant net ~rate_mbps:(Stdlib.min offered_mbps 400.0) ~size (fun sz ->
            incr turn;
            Abcast.Totem.broadcast tot ~from:(!turn mod 3) ~size:sz (Pkt 0))
  in
  Sim.Engine.run engine ~until:duration;
  stop ();
  let from = duration /. 3.0 in
  ( Abcast.Recorder.mbps rec_ ~from ~till:duration,
    Abcast.Recorder.msgs_per_sec rec_ ~from ~till:duration,
    Abcast.Recorder.lat_trimmed_ms rec_ )

(* Throughput is measured at saturating load; response time in a second run
   at 60 % of the measured peak, as queueing at saturated client buffers
   would otherwise dominate the latency (the paper's latency points are
   taken below the saturation knee). *)
let run_proto ?durability ?duration ?msg_size ?mring_f ?decomp proto n =
  let thr, msgs, _ =
    run_proto_at ?durability ?duration ?msg_size ?mring_f ~offered_mbps:1500.0 proto n
  in
  let lat_run () =
    let _, _, lat =
      run_proto_at ?durability ?duration ?msg_size ?mring_f
        ~offered_mbps:(Stdlib.max 2.0 (0.6 *. thr))
        proto n
    in
    lat
  in
  (* With [decomp] the latency run records into a tracer and the caller
     receives the per-stage breakdown of exactly that run. *)
  let lat =
    match decomp with
    | None -> lat_run ()
    | Some k ->
        Util.traced (fun tr ->
            let lat = lat_run () in
            k tr;
            lat)
  in
  (thr, msgs, lat)

let fig3_7 () =
  Util.header "Fig 3.7 - Ring Paxos vs other protocols: Mbps and msg/s per receiver";
  Printf.printf "%-14s %10s %12s %12s\n" "protocol" "receivers" "thr(Mbps)" "msg/s";
  List.iter
    (fun proto ->
      List.iter
        (fun n ->
          let thr, msgs, _ = run_proto proto n in
          Printf.printf "%-14s %10d %12.1f %12.0f\n" (proto_name proto) n thr msgs;
          Util.snap
            (Printf.sprintf "fig3.7/%s/%d" (proto_name proto) n)
            ~mbps:thr ~events_per_sec:msgs)
        [ 5; 10; 25 ])
    [ MRing; URing; Lcr; SPaxos; Spread; Libpaxos; Pfsb ]

let table3_2 () =
  Util.header "Table 3.2 - protocol efficiency at 10 processes (best message size)";
  Printf.printf "%-14s %10s %12s %12s\n" "protocol" "msg size" "thr(Mbps)" "efficiency";
  List.iter
    (fun proto ->
      let thr, _, _ = run_proto proto 10 in
      Printf.printf "%-14s %10d %12.1f %11.1f%%\n" (proto_name proto) (best_size proto) thr
        (thr /. 1000.0 *. 100.0);
      Util.snap (Printf.sprintf "table3.2/%s" (proto_name proto)) ~mbps:thr)
    [ Lcr; URing; MRing; SPaxos; Spread; Pfsb; Libpaxos ]

let table3_1 () =
  Util.header "Table 3.1 - analytic comparison of atomic broadcast algorithms";
  print_string (Abcast.Analysis.render ())

let fig3_8 () =
  Util.header "Fig 3.8 - throughput and latency vs processes in the ring";
  Printf.printf "%-14s %10s %12s %12s\n" "protocol" "processes" "thr(Mbps)" "lat(ms)";
  List.iter
    (fun (proto, sizes) ->
      List.iter
        (fun n ->
          (* For M-Ring Paxos the x-axis is the ring itself: f+1 = n. *)
          let mring_f = if proto = MRing then Some (n - 1) else None in
          let ctrs = ref [] and lat_tr = ref None in
          let thr, _, lat =
            run_proto ?mring_f
              ~decomp:(fun tr ->
                ctrs := Trace.decomp_counters tr;
                lat_tr := Some tr)
              proto n
          in
          Printf.printf "%-14s %10d %12.1f %12.2f\n" (proto_name proto) n thr lat;
          (* Per-stage breakdown of the latency run (M-Ring only, to keep
             the figure's output readable). *)
          (match !lat_tr with
          | Some tr when proto = MRing -> Trace.print_decomposition tr
          | _ -> ());
          Util.snap
            (Printf.sprintf "fig3.8/%s/%d" (proto_name proto) n)
            ~mbps:thr ~lat_mean:lat ~counters:!ctrs)
        sizes)
    [ (MRing, [ 3; 5; 9; 15 ]);
      (URing, [ 5; 9; 15 ]);
      (Lcr, [ 3; 5; 9; 15 ]);
      (SPaxos, [ 3 ]) ]

let fig3_9 () =
  Util.header "Fig 3.9 - synchronous disk writes: latency vs ring size";
  Printf.printf "%-14s %10s %12s %12s\n" "protocol" "processes" "thr(Mbps)" "lat(ms)";
  List.iter
    (fun (proto, sizes) ->
      List.iter
        (fun n ->
          let mring_f = if proto = MRing then Some (n - 1) else None in
          let thr, _, lat =
            run_proto ~durability:Ringpaxos.Mring.Sync_disk ?mring_f proto n
          in
          Printf.printf "%-14s %10d %12.1f %12.2f\n" (proto_name proto) n thr lat;
          Util.snap
            (Printf.sprintf "fig3.9/%s/%d" (proto_name proto) n)
            ~mbps:thr ~lat_mean:lat)
        sizes)
    [ (MRing, [ 3; 5; 9 ]); (URing, [ 5; 9 ]); (Lcr, [ 3; 5; 9 ]) ];
  Printf.printf "\nLatency CDF with 9 processes in the ring (M-Ring Paxos):\n";
  let engine, net = Util.fresh () in
  let rec_ = Abcast.Recorder.create engine in
  let cfg =
    { Ringpaxos.Mring.default_config with f = 4; durability = Ringpaxos.Mring.Sync_disk }
  in
  let mr =
    Ringpaxos.Mring.create net cfg ~n_proposers:1 ~n_learners:1
      ~learner_parts:(fun _ -> [ 0 ])
      ~deliver:(fun ~learner:_ ~inst:_ v -> Option.iter (Abcast.Recorder.value rec_) v)
  in
  let stop =
    Abcast.Loadgen.constant net ~rate_mbps:100.0 ~size:8192 (fun sz ->
        ignore (Ringpaxos.Mring.submit mr ~proposer:0 ~size:sz (Pkt 0));
        true)
  in
  Sim.Engine.run engine ~until:2.0;
  stop ();
  List.iter
    (fun (ms, frac) -> Printf.printf "  %6.2f ms  p%2.0f\n" ms (frac *. 100.0))
    (Abcast.Recorder.lat_cdf rec_ ~points:10)

let fig3_10 () =
  Util.header "Fig 3.10 - message size impact on M-Ring Paxos (8 KB batches)";
  Printf.printf "%-8s %12s %10s %12s %12s\n" "size" "thr(Mbps)" "lat(ms)" "msg/s" "batches/s";
  List.iter
    (fun size ->
      let thr, msgs, lat = run_proto ~msg_size:size MRing 3 in
      let batches = msgs /. Stdlib.max 1.0 (8192.0 /. float_of_int size) in
      Printf.printf "%-8d %12.1f %10.2f %12.0f %12.0f\n" size thr lat msgs batches;
      Util.snap (Printf.sprintf "fig3.10/%d" size) ~mbps:thr ~lat_mean:lat
        ~events_per_sec:msgs)
    [ 200; 1024; 2048; 4096; 8192 ]

let fig3_11 () =
  Util.header "Fig 3.11 - message size impact on U-Ring Paxos (32 KB batches)";
  Printf.printf "%-8s %12s %10s %12s %12s\n" "size" "thr(Mbps)" "lat(ms)" "msg/s" "batches/s";
  List.iter
    (fun size ->
      let thr, msgs, lat = run_proto ~msg_size:size URing 5 in
      let batches = msgs /. Stdlib.max 1.0 (32768.0 /. float_of_int size) in
      Printf.printf "%-8d %12.1f %10.2f %12.0f %12.0f\n" size thr lat msgs batches;
      Util.snap (Printf.sprintf "fig3.11/%d" size) ~mbps:thr ~lat_mean:lat
        ~events_per_sec:msgs)
    [ 200; 1024; 2048; 4096; 8192; 32768 ]

(* --- Figs 3.12/3.13: socket buffer sizes ----------------------------------- *)

let buffer_sweep_at proto buf offered =
      let engine, net = Util.fresh () in
      let rec_ = Abcast.Recorder.create engine in
      let record v = Abcast.Recorder.value rec_ v in
      let stop =
        match proto with
        | `MRing ->
            let mr =
              Ringpaxos.Mring.create net Ringpaxos.Mring.default_config ~n_proposers:2
                ~n_learners:2
                ~learner_parts:(fun _ -> [ 0 ])
                ~deliver:(fun ~learner ~inst:_ v -> if learner = 0 then Option.iter record v)
            in
            Array.iter (fun p -> Simnet.set_rcvbuf p buf) (Ringpaxos.Mring.acceptor_procs mr);
            Simnet.set_rcvbuf (Ringpaxos.Mring.learner_proc mr 0) buf;
            Simnet.set_rcvbuf (Ringpaxos.Mring.learner_proc mr 1) buf;
            let turn = ref 0 in
            Abcast.Loadgen.constant net ~rate_mbps:offered ~size:8192 (fun sz ->
                incr turn;
                ignore (Ringpaxos.Mring.submit mr ~proposer:(!turn land 1) ~size:sz (Pkt 0));
                true)
        | `URing ->
            let ur =
              Ringpaxos.Uring.create net Ringpaxos.Uring.default_config
                ~positions:(Ringpaxos.Uring.standard_positions ~n:5)
                ~deliver:(fun ~learner ~inst:_ v -> if learner = 0 then record v)
            in
            for i = 0 to 4 do
              Simnet.set_rcvbuf (Ringpaxos.Uring.position_proc ur i) buf
            done;
            let turn = ref 0 in
            Abcast.Loadgen.constant net ~rate_mbps:offered ~size:8192 (fun sz ->
                incr turn;
                ignore (Ringpaxos.Uring.submit ur ~proposer:(!turn mod 5) ~size:sz (Pkt 0));
                true)
      in
      Sim.Engine.run engine ~until:2.0;
      stop ();
      (Abcast.Recorder.mbps rec_ ~from:0.7 ~till:2.0, Abcast.Recorder.lat_trimmed_ms rec_)

(* Throughput at saturation; latency in a second pass at 60 % of it. *)
let buffer_sweep label proto =
  List.iter
    (fun buf ->
      let thr, _ = buffer_sweep_at proto buf 1500.0 in
      let _, lat = buffer_sweep_at proto buf (Stdlib.max 2.0 (0.6 *. thr)) in
      let bufname =
        if buf >= 1024 * 1024 then Printf.sprintf "%dM" (buf / 1024 / 1024)
        else Printf.sprintf "%dK" (buf / 1024)
      in
      Printf.printf "%-10s %12.1f %10.2f\n" bufname thr lat;
      Util.snap (Printf.sprintf "%s/%s" label bufname) ~mbps:thr ~lat_mean:lat)
    [ 100 * 1024;
      1024 * 1024;
      4 * 1024 * 1024;
      8 * 1024 * 1024;
      16 * 1024 * 1024;
      32 * 1024 * 1024 ]

let fig3_12 () =
  Util.header "Fig 3.12 - socket buffer size impact on M-Ring Paxos";
  Printf.printf "%-10s %12s %10s\n" "buffer" "thr(Mbps)" "lat(ms)";
  buffer_sweep "fig3.12" `MRing

let fig3_13 () =
  Util.header "Fig 3.13 - socket buffer size impact on U-Ring Paxos";
  Printf.printf "%-10s %12s %10s\n" "buffer" "thr(Mbps)" "lat(ms)";
  buffer_sweep "fig3.13" `URing

(* --- Fig 3.14: flow control timeline ---------------------------------------- *)

let fig3_14 () =
  Util.header "Fig 3.14 - M-Ring Paxos flow control";
  let engine, net = Util.fresh () in
  let cfg = { Ringpaxos.Mring.default_config with fc_threshold = 32 } in
  let rates = Array.init 3 (fun _ -> Sim.Stats.Rate.create ()) in
  let mr =
    Ringpaxos.Mring.create net cfg ~n_proposers:2 ~n_learners:3
      ~learner_parts:(fun _ -> [ 0 ])
      ~deliver:(fun ~learner ~inst:_ v ->
        match v with
        | Some v ->
            Sim.Stats.Rate.add rates.(learner) ~now:(Sim.Engine.now engine) ~bytes:v.size
        | None -> ())
  in
  (* 850 Mbps aggregate from two learner-proposers. *)
  let stop =
    Abcast.Loadgen.constant net ~rate_mbps:850.0 ~size:8192 (fun sz ->
        ignore (Ringpaxos.Mring.submit mr ~proposer:0 ~size:sz (Pkt 0));
        ignore (Ringpaxos.Mring.submit mr ~proposer:1 ~size:sz (Pkt 0));
        true)
  in
  ignore (Simnet.after net 10.0 (fun () -> Ringpaxos.Mring.set_learner_delay mr 1 2.0e-3));
  ignore (Simnet.after net 20.0 (fun () -> Ringpaxos.Mring.set_learner_delay mr 1 0.0));
  Sim.Engine.run engine ~until:30.0;
  stop ();
  Printf.printf "(slow learner from t=10s to t=20s)\n";
  Printf.printf "%-6s %12s %12s %12s %10s %10s\n" "t(s)" "lrn0(Mbps)" "slow(Mbps)"
    "lrn2(Mbps)" "window" "drops";
  List.iter
    (fun t ->
      let m i = Sim.Stats.Rate.mbps rates.(i) ~from:(t -. 2.5) ~till:t in
      Printf.printf "%-6.1f %12.1f %12.1f %12.1f %10d %10d\n" t (m 0) (m 1) (m 2)
        (Ringpaxos.Mring.current_window mr)
        (Ringpaxos.Mring.coord_drops mr);
      Util.snap
        (Printf.sprintf "fig3.14/t%.1f" t)
        ~mbps:(m 1)
        ~counters:
          [ ("window", Ringpaxos.Mring.current_window mr);
            ("coord_drops", Ringpaxos.Mring.coord_drops mr) ])
    [ 2.5; 5.0; 7.5; 10.0; 12.5; 15.0; 17.5; 20.0; 22.5; 25.0; 27.5; 30.0 ];
  Util.snap "fig3.14/counters" ~counters:(Ringpaxos.Mring.counters mr)

(* --- Tables 3.3/3.4: CPU and memory per role --------------------------------- *)

let table3_3 () =
  Util.header "Table 3.3 - CPU and memory per role, M-Ring Paxos at peak";
  let engine, net = Util.fresh () in
  let mr =
    Ringpaxos.Mring.create net Ringpaxos.Mring.default_config ~n_proposers:2 ~n_learners:2
      ~learner_parts:(fun _ -> [ 0 ])
      ~deliver:(fun ~learner:_ ~inst:_ _ -> ())
  in
  let stop =
    Abcast.Loadgen.constant net ~rate_mbps:1200.0 ~size:8192 (fun sz ->
        ignore (Ringpaxos.Mring.submit mr ~proposer:0 ~size:sz (Pkt 0));
        ignore (Ringpaxos.Mring.submit mr ~proposer:1 ~size:sz (Pkt 0));
        true)
  in
  Sim.Engine.run engine ~until:3.0;
  stop ();
  let report role proc =
    let cpu = Util.cpu_pct (Simnet.cpu_busy (Simnet.proc_node proc)) ~from:1.0 ~till:3.0 in
    Printf.printf "%-12s %8.1f%% %10d KB\n" role cpu (Simnet.mem proc / 1024);
    Util.snap
      (Printf.sprintf "table3.3/%s" role)
      ~cpu_pct:cpu
      ~counters:[ ("mem_kb", Simnet.mem proc / 1024) ]
  in
  Printf.printf "%-12s %9s %13s\n" "role" "CPU" "memory";
  report "proposer" (Ringpaxos.Mring.proposer_proc mr 0);
  report "coordinator" (Ringpaxos.Mring.coordinator_proc mr);
  report "acceptor" (Ringpaxos.Mring.acceptor_procs mr).(0);
  report "learner" (Ringpaxos.Mring.learner_proc mr 0);
  Util.snap "table3.3/counters" ~counters:(Ringpaxos.Mring.counters mr)

let table3_4 () =
  Util.header "Table 3.4 - CPU and memory per role, U-Ring Paxos at peak";
  let engine, net = Util.fresh () in
  let ur =
    Ringpaxos.Uring.create net Ringpaxos.Uring.default_config
      ~positions:(Ringpaxos.Uring.standard_positions ~n:5)
      ~deliver:(fun ~learner:_ ~inst:_ _ -> ())
  in
  let turn = ref 0 in
  let stop =
    Abcast.Loadgen.constant net ~rate_mbps:1200.0 ~size:8192 (fun sz ->
        incr turn;
        ignore (Ringpaxos.Uring.submit ur ~proposer:(!turn mod 5) ~size:sz (Pkt 0));
        true)
  in
  Sim.Engine.run engine ~until:3.0;
  stop ();
  Printf.printf "%-26s %9s\n" "role" "CPU";
  let p = Ringpaxos.Uring.position_proc ur 1 in
  let cpu = Util.cpu_pct (Simnet.cpu_busy (Simnet.proc_node p)) ~from:1.0 ~till:3.0 in
  Printf.printf "%-26s %8.1f%%\n" "proposer-acceptor-learner" cpu;
  Util.snap "table3.4/proposer-acceptor-learner" ~cpu_pct:cpu

let all () =
  fig3_2 ();
  fig3_3 ();
  fig3_4 ();
  table3_1 ();
  fig3_7 ();
  table3_2 ();
  fig3_8 ();
  fig3_9 ();
  fig3_10 ();
  fig3_11 ();
  fig3_12 ();
  fig3_13 ();
  fig3_14 ();
  table3_3 ();
  table3_4 ()
