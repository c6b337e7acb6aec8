(* Tests for the simulated network (lib/net) and disk (lib/storage). *)

type Simnet.payload += Ping of int

let make_net ?config () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 1 in
  let net = Simnet.create ?config engine rng in
  (engine, net)

let no_jitter =
  { Simnet.default_config with latency_jitter = 0.0 }

let test_unicast_delivery () =
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node net "a" and nb = Simnet.add_node net "b" in
  let a = Simnet.add_proc net na "a" and b = Simnet.add_proc net nb "b" in
  let got = ref [] in
  Simnet.set_handler b (fun m ->
      match m.payload with Ping i -> got := i :: !got | _ -> ());
  Simnet.send net ~src:a ~dst:b ~size:100 (Ping 1);
  Simnet.send net ~src:a ~dst:b ~size:100 (Ping 2);
  Sim.Engine.run_all engine;
  Alcotest.(check (list int)) "both delivered in order" [ 1; 2 ] (List.rev !got)

let test_unicast_latency () =
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node net "a" and nb = Simnet.add_node net "b" in
  let a = Simnet.add_proc net na "a" and b = Simnet.add_proc net nb "b" in
  let arrival = ref 0.0 in
  Simnet.set_handler b (fun _ -> arrival := Sim.Engine.now engine);
  Simnet.send net ~src:a ~dst:b ~size:100 (Ping 0);
  Sim.Engine.run_all engine;
  (* Propagation is 50 us one way; CPU and serialisation add a little. *)
  Alcotest.(check bool) "arrives after latency" true (!arrival >= 5.0e-5);
  Alcotest.(check bool) "arrives quickly" true (!arrival < 3.0e-4)

let test_bandwidth_bound () =
  (* 1 Gbps link: pushing 125 MB takes about a second. *)
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node net "a" and nb = Simnet.add_node net "b" in
  let a = Simnet.add_proc net na "a" and b = Simnet.add_proc net nb "b" in
  let done_at = ref 0.0 in
  let received = ref 0 in
  let msg_size = 125_000 in
  let n_msgs = 1000 in
  Simnet.set_handler b (fun m ->
      received := !received + m.size;
      done_at := Sim.Engine.now engine);
  for _ = 1 to n_msgs do
    Simnet.send net ~src:a ~dst:b ~size:msg_size (Ping 0)
  done;
  Sim.Engine.run_all engine;
  Alcotest.(check int) "all bytes received" (msg_size * n_msgs) !received;
  let gbit = float_of_int (msg_size * n_msgs) *. 8.0 /. !done_at /. 1e9 in
  Alcotest.(check bool) "goodput below line rate" true (gbit < 1.0);
  Alcotest.(check bool) "goodput above half line rate" true (gbit > 0.5)

let test_mcast_fanout () =
  let engine, net = make_net ~config:no_jitter () in
  let ns = Simnet.add_node net "s" in
  let s = Simnet.add_proc net ns "s" in
  let g = Simnet.new_group net "g" in
  let hits = ref 0 in
  for i = 0 to 9 do
    let n = Simnet.add_node net (Printf.sprintf "r%d" i) in
    let p = Simnet.add_proc net n (Printf.sprintf "r%d" i) in
    Simnet.set_handler p (fun _ -> incr hits);
    Simnet.join g p
  done;
  Simnet.join g s;
  Simnet.mcast net ~src:s g ~size:1000 (Ping 0);
  Sim.Engine.run_all engine;
  (* Sender excluded by default. *)
  Alcotest.(check int) "all receivers got it" 10 !hits

let test_mcast_unavailable () =
  let cfg = { Simnet.default_config with multicast_available = false } in
  let _, net = make_net ~config:cfg () in
  let ns = Simnet.add_node net "s" in
  let s = Simnet.add_proc net ns "s" in
  let g = Simnet.new_group net "g" in
  Alcotest.check_raises "raises"
    (Failure "Simnet.mcast: ip-multicast unavailable in this deployment") (fun () ->
      Simnet.mcast net ~src:s g ~size:10 (Ping 0))

(* 5 KB datagrams from [a] to [b] alone: the fan-out copy of a one-member
   multicast group, which a full receive buffer drops. *)
let datagrams net a b =
  let g = Simnet.new_group net "to-b" in
  Simnet.join g b;
  fun payload -> Simnet.mcast net ~src:a g ~size:5_000 payload

let test_udp_buffer_overflow () =
  (* A tiny receive buffer and a slow receiver must drop datagrams. *)
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node net "a" and nb = Simnet.add_node net "b" in
  let a = Simnet.add_proc net na "a" and b = Simnet.add_proc net nb "b" in
  Simnet.set_rcvbuf b 10_000;
  let c = Simnet.costs_of b in
  c.recv_per_msg <- 1.0e-3 (* pathological slow consumer *);
  let got = ref 0 in
  Simnet.set_handler b (fun _ -> incr got);
  let send = datagrams net a b in
  for _ = 1 to 100 do
    send (Ping 0)
  done;
  Sim.Engine.run_all engine;
  Alcotest.(check bool) "some delivered" true (!got > 0);
  Alcotest.(check bool) "some dropped" true (Simnet.drops b > 0);
  Alcotest.(check int) "conservation" 100 (!got + Simnet.drops b)

let test_tcp_no_loss_under_pressure () =
  (* Same pressure over the reliable transport: nothing may be lost. *)
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node net "a" and nb = Simnet.add_node net "b" in
  let a = Simnet.add_proc net na "a" and b = Simnet.add_proc net nb "b" in
  Simnet.set_rcvbuf b 10_000;
  let c = Simnet.costs_of b in
  c.recv_per_msg <- 1.0e-4;
  let got = ref 0 in
  Simnet.set_handler b (fun _ -> incr got);
  for _ = 1 to 100 do
    Simnet.send net ~src:a ~dst:b ~size:5_000 (Ping 0)
  done;
  Sim.Engine.run_all engine;
  Alcotest.(check int) "all delivered" 100 !got;
  Alcotest.(check int) "no drops" 0 (Simnet.drops b)

let test_kill_and_recover () =
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node net "a" and nb = Simnet.add_node net "b" in
  let a = Simnet.add_proc net na "a" and b = Simnet.add_proc net nb "b" in
  let got = ref 0 in
  Simnet.set_handler b (fun _ -> incr got);
  Simnet.send net ~src:a ~dst:b ~size:10 (Ping 0);
  Sim.Engine.run_all engine;
  Simnet.kill net b;
  Simnet.send net ~src:a ~dst:b ~size:10 (Ping 1);
  Sim.Engine.run_all engine;
  Alcotest.(check int) "dead process gets nothing" 1 !got;
  Simnet.recover net b;
  Simnet.send net ~src:a ~dst:b ~size:10 (Ping 2);
  Sim.Engine.run_all engine;
  Alcotest.(check int) "recovered process receives again" 2 !got

let test_cpu_accounting () =
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node net "a" in
  let a = Simnet.add_proc net na "a" in
  Simnet.charge_cpu net a 0.5;
  Sim.Engine.run_all engine;
  Alcotest.(check (float 1e-9)) "busy total" 0.5 (Sim.Stats.Busy.total (Simnet.cpu_busy na))

let test_exec_callback () =
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node net "a" in
  let a = Simnet.add_proc net na "a" in
  let at = ref 0.0 in
  Simnet.exec net a ~dur:0.25 (fun () -> at := Sim.Engine.now engine);
  Sim.Engine.run_all engine;
  Alcotest.(check (float 1e-9)) "completion time" 0.25 !at

let test_slow_node_cpu_factor () =
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node ~cpu_factor:4.0 net "slow" in
  let a = Simnet.add_proc net na "slow" in
  let at = ref 0.0 in
  Simnet.exec net a ~dur:0.1 (fun () -> at := Sim.Engine.now engine);
  Sim.Engine.run_all engine;
  Alcotest.(check (float 1e-9)) "4x slower" 0.4 !at

let test_wire_size () =
  (* One frame: size + one frame overhead. *)
  Alcotest.(check int) "small frame" (100 + 52) (Simnet.wire_size 100);
  (* 8 KB crosses several MTU frames. *)
  Alcotest.(check bool) "8K has multiple frames" true (Simnet.wire_size 8192 > 8192 + 52 * 4)

let test_mcast_loss_grows_with_senders () =
  (* Drive the switch near capacity from 1 vs 5 senders; more senders must
     lose packets at the same (or lower) aggregate rate — Fig. 3.3. *)
  let run n_senders =
    let engine, net = make_net ~config:no_jitter () in
    let g = Simnet.new_group net "g" in
    let senders =
      Array.init n_senders (fun i ->
          let n = Simnet.add_node net (Printf.sprintf "s%d" i) in
          Simnet.add_proc net n (Printf.sprintf "s%d" i))
    in
    for i = 0 to 13 do
      let n = Simnet.add_node net (Printf.sprintf "r%d" i) in
      let p = Simnet.add_proc net n (Printf.sprintf "r%d" i) in
      Simnet.join g p
    done;
    (* Aggregate 0.95 Gbps in 8 KB packets across senders. *)
    let pkt = 8192 in
    let agg_rate = 0.95e9 in
    let interval = float_of_int (pkt * 8) /. (agg_rate /. float_of_int n_senders) in
    Array.iteri
      (fun si s ->
        let stop =
          Simnet.every net ~period:interval (fun () ->
              Simnet.mcast net ~src:s g ~size:pkt (Ping si))
        in
        ignore (Sim.Engine.schedule engine ~delay:1.0 (fun () -> stop ())))
      senders;
    Sim.Engine.run engine ~until:1.2;
    let sent = Simnet.mcast_packets net in
    let dropped = Simnet.switch_drops net in
    float_of_int dropped /. float_of_int (Stdlib.max 1 (sent * 14))
  in
  let loss1 = run 1 and loss5 = run 5 in
  Alcotest.(check bool) "5 senders lose more than 1" true (loss5 > loss1)

let test_disk_sync_write_latency () =
  let engine = Sim.Engine.create () in
  let d = Storage.Disk.create engine "d" in
  let at = ref 0.0 in
  Storage.Disk.write_sync d ~bytes:(32 * 1024) (fun () -> at := Sim.Engine.now engine);
  Sim.Engine.run_all engine;
  (* 32 KiB at 270 Mbps is about 0.97 ms plus setup. *)
  Alcotest.(check bool) "durable after ~1ms" true (!at > 8.0e-4 && !at < 2.0e-3)

let test_disk_bandwidth_bound () =
  let engine = Sim.Engine.create () in
  let d = Storage.Disk.create engine "d" in
  let last = ref 0.0 in
  let n = 100 in
  for _ = 1 to n do
    Storage.Disk.write_sync d ~bytes:(32 * 1024) (fun () -> last := Sim.Engine.now engine)
  done;
  Sim.Engine.run_all engine;
  let mbps = float_of_int (n * 32 * 1024 * 8) /. !last /. 1e6 in
  Alcotest.(check bool) "sustained near 270 Mbps" true (mbps > 200.0 && mbps < 270.0)

let test_disk_rounds_up () =
  let engine = Sim.Engine.create () in
  let d = Storage.Disk.create engine "d" in
  Storage.Disk.write_async d ~bytes:1;
  Alcotest.(check int) "rounded to write unit" (32 * 1024) (Storage.Disk.written d)

let suite =
  [ Alcotest.test_case "unicast delivery + order" `Quick test_unicast_delivery;
    Alcotest.test_case "unicast latency" `Quick test_unicast_latency;
    Alcotest.test_case "bandwidth bound" `Quick test_bandwidth_bound;
    Alcotest.test_case "multicast fanout" `Quick test_mcast_fanout;
    Alcotest.test_case "multicast unavailable" `Quick test_mcast_unavailable;
    Alcotest.test_case "udp buffer overflow drops" `Quick test_udp_buffer_overflow;
    Alcotest.test_case "tcp reliable under pressure" `Quick test_tcp_no_loss_under_pressure;
    Alcotest.test_case "kill and recover" `Quick test_kill_and_recover;
    Alcotest.test_case "cpu accounting" `Quick test_cpu_accounting;
    Alcotest.test_case "exec callback timing" `Quick test_exec_callback;
    Alcotest.test_case "heterogeneous cpu factor" `Quick test_slow_node_cpu_factor;
    Alcotest.test_case "wire size framing" `Quick test_wire_size;
    Alcotest.test_case "multicast loss vs #senders" `Quick test_mcast_loss_grows_with_senders;
    Alcotest.test_case "disk sync write latency" `Quick test_disk_sync_write_latency;
    Alcotest.test_case "disk bandwidth bound" `Quick test_disk_bandwidth_bound;
    Alcotest.test_case "disk write unit rounding" `Quick test_disk_rounds_up ]

let test_tcp_fifo_under_backpressure () =
  (* Messages queued behind a full window must still arrive in order. *)
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node net "a" and nb = Simnet.add_node net "b" in
  let a = Simnet.add_proc net na "a" and b = Simnet.add_proc net nb "b" in
  Simnet.set_rcvbuf b 20_000;
  (Simnet.costs_of b).recv_per_msg <- 5.0e-4;
  let got = ref [] in
  Simnet.set_handler b (fun m ->
      match m.payload with Ping i -> got := i :: !got | _ -> ());
  for i = 1 to 50 do
    Simnet.send net ~src:a ~dst:b ~size:10_000 (Ping i)
  done;
  Sim.Engine.run_all engine;
  Alcotest.(check (list int)) "FIFO preserved through backpressure"
    (List.init 50 (fun i -> i + 1))
    (List.rev !got)

let test_engine_event_budget () =
  let e = Sim.Engine.create () in
  let rec spin () = ignore (Sim.Engine.schedule e ~delay:0.0 spin) in
  spin ();
  Alcotest.check_raises "runaway loops are caught"
    (Failure "Engine.run: event budget exhausted") (fun () ->
      Sim.Engine.run ~max_events:1000 e ~until:1.0)

let test_charge_cpu_delays_later_messages () =
  (* Booked CPU work delays subsequent message handling on the same node. *)
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node net "a" and nb = Simnet.add_node net "b" in
  let a = Simnet.add_proc net na "a" and b = Simnet.add_proc net nb "b" in
  let served_at = ref 0.0 in
  Simnet.set_handler b (fun _ -> served_at := Sim.Engine.now engine);
  Simnet.charge_cpu net b 0.1;
  Simnet.send net ~src:a ~dst:b ~size:100 (Ping 1);
  Sim.Engine.run_all engine;
  Alcotest.(check bool) "handler waited for the busy CPU" true (!served_at >= 0.1)

let test_recover_resets_rcvbuf_accounting () =
  (* Deliveries accepted before a crash used to decrement the (reset)
     buffer accounting when their service completed after recovery,
     driving the counter negative and disabling overflow drops forever. *)
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node net "a" and nb = Simnet.add_node net "b" in
  let a = Simnet.add_proc net na "a" and b = Simnet.add_proc net nb "b" in
  Simnet.set_rcvbuf b 10_000;
  (Simnet.costs_of b).recv_per_msg <- 1.0e-2 (* buffered for 10ms each *);
  Simnet.set_handler b (fun _ -> ());
  let send = datagrams net a b in
  send (Ping 0);
  send (Ping 1);
  (* Crash and recover while both packets still sit in the buffer. *)
  ignore
    (Simnet.after net 2.0e-3 (fun () ->
         Simnet.kill net b;
         Simnet.recover net b));
  Sim.Engine.run_all engine;
  Alcotest.(check int) "accounting back to zero" 0 (Simnet.rcvbuf_used b);
  (* The recovered buffer must still enforce its bound. *)
  let drops0 = Simnet.drops b in
  for _ = 1 to 100 do
    send (Ping 2)
  done;
  Sim.Engine.run_all engine;
  Alcotest.(check bool) "overflow drops still occur" true (Simnet.drops b > drops0);
  Alcotest.(check bool) "never negative" true (Simnet.rcvbuf_used b >= 0)

let test_kill_clears_crashed_senders_backlog () =
  (* TCP messages queued behind the receiver's window on the CRASHED
     sender's connections must die with the sender.  They used to stay
     queued and replay into the receiver as it drained its window —
     ghost traffic from a dead process. *)
  let engine, net = make_net ~config:no_jitter () in
  let na = Simnet.add_node net "a" and nb = Simnet.add_node net "b" in
  let a = Simnet.add_proc net na "a" and b = Simnet.add_proc net nb "b" in
  Simnet.set_rcvbuf b 10_000;
  (Simnet.costs_of b).recv_per_msg <- 1.0e-3;
  let got = ref 0 in
  Simnet.set_handler b (fun _ -> incr got);
  for _ = 1 to 10 do
    Simnet.send net ~src:a ~dst:b ~size:5_000 (Ping 0)
  done;
  (* Two messages fit the window; the rest are backlogged when [a] dies. *)
  ignore (Simnet.after net 1.0e-4 (fun () -> Simnet.kill net a));
  Sim.Engine.run_all engine;
  Alcotest.(check bool) "backlogged messages are not replayed" true (!got < 10);
  let at_quiescence = !got in
  (* Nor may the stale backlog resurface when the sender recovers. *)
  Simnet.recover net a;
  Sim.Engine.run_all engine;
  Alcotest.(check int) "recovery does not resurrect the backlog" at_quiescence !got

let test_fig32_unicast_regression () =
  (* Mirrors bench/fig3.ml one_to_many `Unicast 2 and pins the throughput
     measured before the streaming-stats rewrite (481.645909 Mbps), so a
     change in Rate bucketing that shifts figure outputs by more than 1%
     fails here rather than silently skewing the reproduction. *)
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create 7) in
  let sender_node = Simnet.add_node net "sender" in
  let sender = Simnet.add_proc net sender_node "sender" in
  let receivers =
    Array.init 2 (fun i ->
        let nd = Simnet.add_node net (Printf.sprintf "r%d" i) in
        Simnet.add_proc net nd (Printf.sprintf "r%d" i))
  in
  let group = Simnet.new_group net "g" in
  Array.iter (fun r -> Simnet.join group r) receivers;
  let pkt = 8192 in
  let stop =
    Simnet.every net ~period:(float_of_int (pkt * 8) /. 1.0e9) (fun () ->
        Array.iter
          (fun r -> Simnet.send net ~src:sender ~dst:r ~size:pkt (Ping 0))
          receivers)
  in
  Sim.Engine.run engine ~until:2.0;
  stop ();
  let thr = Sim.Stats.Rate.mbps (Simnet.recv_rate receivers.(0)) ~from:0.5 ~till:2.0 in
  let expected = 481.645909 in
  Alcotest.(check bool)
    (Printf.sprintf "fig3.2 unicast/2 throughput %.3f within 1%% of %.3f" thr expected)
    true
    (Float.abs (thr -. expected) /. expected < 0.01)

let suite =
  suite
  @ [ Alcotest.test_case "tcp FIFO under backpressure" `Quick
        test_tcp_fifo_under_backpressure;
      Alcotest.test_case "engine event budget guard" `Quick test_engine_event_budget;
      Alcotest.test_case "charge_cpu delays handlers" `Quick
        test_charge_cpu_delays_later_messages;
      Alcotest.test_case "recover resets rcvbuf accounting" `Quick
        test_recover_resets_rcvbuf_accounting;
      Alcotest.test_case "kill clears crashed sender's backlog" `Quick
        test_kill_clears_crashed_senders_backlog;
      Alcotest.test_case "fig3.2 unicast throughput regression" `Quick
        test_fig32_unicast_regression ]
