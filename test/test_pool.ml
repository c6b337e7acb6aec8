(* Tests for the pooled message path (lib/net): reclaiming a handler's
   borrowed record, pool-epoch safety across kill/recover, the backlog
   ring against a queue model, bounded backlog-ring memory,
   allocation-free steady state, and a golden digest of a traced run. *)

type Simnet.payload += Ping of int

let quiet = { Simnet.default_config with latency_jitter = 0.0 }

let make ?(config = quiet) ?(seed = 1) () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create ~config engine (Sim.Rng.create seed) in
  (engine, net)

let pair net =
  let na = Simnet.add_node net "a" and nb = Simnet.add_node net "b" in
  (Simnet.add_proc net na "a", Simnet.add_proc net nb "b")

(* --- lifecycle: a handler borrows the record ------------------------- *)

let test_borrow_reclaimed_after_handler () =
  let engine, net = make () in
  let a, b = pair net in
  let seen = ref 0 in
  Simnet.set_handler b (fun _ -> incr seen);
  Simnet.send net ~src:a ~dst:b ~size:64 (Ping 1);
  Sim.Engine.run_all engine;
  Alcotest.(check int) "delivered" 1 !seen;
  Alcotest.(check int) "all records back on the freelist"
    (Simnet.pool_allocated net) (Simnet.pool_free net)

(* --- pool-epoch safety across kill/recover ---------------------------- *)

let test_pool_consistent_across_kill_recover () =
  let engine, net = make () in
  let a, b = pair net in
  let delivered = ref 0 in
  Simnet.set_handler b (fun _ -> incr delivered);
  for i = 1 to 50 do
    Simnet.send net ~src:a ~dst:b ~size:256 (Ping i)
  done;
  (* Kill the receiver while messages are in flight and parked on the
     connection, recover it, and keep sending: every record must come
     back to the freelist exactly once. *)
  ignore (Sim.Engine.at engine ~time:2.0e-4 (fun () -> Simnet.kill net b));
  ignore (Sim.Engine.at engine ~time:8.0e-4 (fun () -> Simnet.recover net b));
  ignore
    (Sim.Engine.at engine ~time:9.0e-4 (fun () ->
         for i = 1 to 20 do
           Simnet.send net ~src:a ~dst:b ~size:256 (Ping i)
         done));
  Sim.Engine.run_all engine;
  Alcotest.(check bool) "some messages were lost to the crash" true
    (!delivered < 70);
  Alcotest.(check bool) "some messages survived" true (!delivered > 0);
  Alcotest.(check int) "no leak, no double free"
    (Simnet.pool_allocated net) (Simnet.pool_free net)

let prop_random_lifecycle =
  (* Random interleaving of sends, kills and recoveries over three
     processes; at quiescence the freelist must hold every record the
     pool ever created (each terminal path reclaimed exactly once). *)
  QCheck.Test.make ~name:"random send/kill/recover keeps the pool consistent"
    ~count:30
    QCheck.(pair small_int (list (int_bound 9)))
    (fun (seed, ops) ->
      let engine, net = make ~seed:(seed + 1) () in
      let na = Simnet.add_node net "a"
      and nb = Simnet.add_node net "b"
      and nc = Simnet.add_node net "c" in
      let procs =
        [| Simnet.add_proc net na "a"; Simnet.add_proc net nb "b";
           Simnet.add_proc net nc "c" |]
      in
      Array.iter (fun p -> Simnet.set_handler p (fun _ -> ())) procs;
      let t = ref 0.0 in
      List.iter
        (fun op ->
          t := !t +. 5.0e-5;
          let time = !t in
          match op with
          | 0 | 1 | 2 | 3 | 4 | 5 ->
              let src = procs.(op mod 3) and dst = procs.((op + 1) mod 3) in
              ignore
                (Sim.Engine.at engine ~time (fun () ->
                     Simnet.send net ~src ~dst ~size:(64 + (op * 100)) (Ping op)))
          | 6 | 7 ->
              ignore
                (Sim.Engine.at engine ~time (fun () ->
                     Simnet.kill net procs.(op - 6)))
          | _ ->
              ignore
                (Sim.Engine.at engine ~time (fun () ->
                     Simnet.recover net procs.(op - 8))))
        ops;
      Sim.Engine.run_all engine;
      Simnet.pool_allocated net = Simnet.pool_free net)

(* --- backlog ring against a queue model ------------------------------- *)

(* Random sends of random sizes into a small receive window park most of
   them in the connection's backlog ring, forcing it to grow and, with
   partial drains in between, to wrap.  The model is the queue of sends
   accepted while the receiver is up and not yet delivered: each delivery
   must be its head (exactly once, in send order) and at quiescence it
   must be empty.  A crash of the receiver loses whatever it still owed
   (in-flight messages and the parked backlog), so the model is cleared;
   the receiver recovers only once the network is quiet, so a backlog
   that survived the crash would surface as a stale delivery or wedge the
   connection. *)
let prop_backlog_ring_matches_queue =
  QCheck.Test.make ~name:"backlog ring delivers like a FIFO queue" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (pair (int_bound 9) (int_range 1 3000)))
    (fun program ->
      let engine, net = make () in
      let a, b = pair net in
      Simnet.set_rcvbuf b 2048;
      let model = Queue.create () in
      let ok = ref true in
      Simnet.set_handler b (fun m ->
          let expected = Queue.take_opt model in
          match m.payload with Ping id when expected = Some id -> () | _ -> ok := false);
      let next = ref 0 in
      List.iter
        (fun (op, n) ->
          if op < 8 then begin
            incr next;
            Queue.push !next model;
            Simnet.send net ~src:a ~dst:b ~size:n (Ping !next)
          end
          else if op = 8 then
            Sim.Engine.run engine ~until:(Sim.Engine.now engine +. (float_of_int n *. 1.0e-7))
          else begin
            Simnet.kill net b;
            Queue.clear model;
            Sim.Engine.run_all engine;
            Simnet.recover net b
          end)
        program;
      Sim.Engine.run_all engine;
      !ok && Queue.is_empty model
      && Simnet.pool_allocated net = Simnet.pool_free net)

(* --- backlog ring stays bounded ----------------------------------------- *)

let test_backlog_ring_memory_bounded () =
  let engine, net = make () in
  let a, b = pair net in
  Simnet.set_rcvbuf b 2048;
  Simnet.set_handler b (fun _ -> ());
  (* One fill/drain cycle deep enough to size the ring. *)
  let cycle n =
    for i = 1 to n do
      Simnet.send net ~src:a ~dst:b ~size:512 (Ping i)
    done;
    Sim.Engine.run_all engine
  in
  cycle 256;
  let baseline = Obj.reachable_words (Obj.repr net) in
  (* Many more cycles of the same depth: the ring and pool are already
     grown, so the network's whole object graph must not keep growing. *)
  for _ = 1 to 10 do
    cycle 256
  done;
  let after = Obj.reachable_words (Obj.repr net) in
  Alcotest.(check bool)
    (Printf.sprintf "backlog memory bounded (%d -> %d words)" baseline after)
    true
    (after <= baseline + 512)

(* --- allocation-free steady state, golden trace ------------------------- *)

(* A ping-pong between two processes: messages delivered and minor words
   per message over the second 0.1 s, after a warm-up that lets the pool,
   rings, wheel slots and stats buckets reach steady state. *)
let steady_unicast_words config =
  let engine, net = make ~config () in
  let a, b = pair net in
  let fires = ref 0 in
  Simnet.set_handler b (fun m ->
      incr fires;
      Simnet.send net ~src:b ~dst:a ~size:m.size m.payload);
  Simnet.set_handler a (fun m ->
      incr fires;
      Simnet.send net ~src:a ~dst:b ~size:m.size m.payload);
  Simnet.send net ~src:a ~dst:b ~size:512 (Ping 0);
  Sim.Engine.run engine ~until:0.1;
  let f0 = !fires in
  let w0 = Gc.minor_words () in
  Sim.Engine.run engine ~until:0.2;
  let words = Gc.minor_words () -. w0 in
  let msgs = !fires - f0 in
  (msgs, words /. float_of_int (Stdlib.max 1 msgs))

let test_steady_unicast_allocates_nothing () =
  let msgs, per_msg = steady_unicast_words quiet in
  Alcotest.(check bool) "the run made progress" true (msgs > 1000);
  Alcotest.(check (float 0.0)) "zero minor words in steady state" 0.0 per_msg

(* The same ping-pong with the default 5 % latency jitter: the per-message
   jitter draw is scaled locally from an int, so no float boxes. *)
let test_jittered_unicast_allocates_nothing () =
  let msgs, per_msg = steady_unicast_words Simnet.default_config in
  Alcotest.(check bool) "the run made progress" true (msgs > 1000);
  Alcotest.(check (float 0.0))
    (Printf.sprintf "zero minor words per jittered message (%.2f)" per_msg)
    0.0 per_msg

let test_disabled_tracer_allocates_nothing () =
  let engine, net = make () in
  let a, b = pair net in
  let tr = Trace.create () in
  Trace.set_enabled tr false;
  Simnet.set_tracer net (Some tr);
  Simnet.set_handler b (fun m -> Simnet.send net ~src:b ~dst:a ~size:m.size m.payload);
  Simnet.set_handler a (fun m -> Simnet.send net ~src:a ~dst:b ~size:m.size m.payload);
  Simnet.send net ~src:a ~dst:b ~size:512 (Ping 0);
  Sim.Engine.run engine ~until:0.1;
  let w0 = Gc.minor_words () in
  Sim.Engine.run engine ~until:0.2;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "disabled tracer stays allocation-free" 0.0 words

(* A steady multicast from one member of a 5-member group, one packet
   every 100 us: minor words per delivered message over the second 0.1 s,
   then the pool must be whole once the stream stops.  The lossy config
   shrinks the switch capacity below the offered 80 Mbps and adds base
   loss, so the loss model's drop path runs on every packet too. *)
let steady_mcast_words ~config ~loopback =
  let engine, net = make ~config () in
  let g = Simnet.new_group net "g" in
  let procs =
    List.init 5 (fun i ->
        let n = Simnet.add_node net (Printf.sprintf "n%d" i) in
        let p = Simnet.add_proc net n (Printf.sprintf "p%d" i) in
        Simnet.join g p;
        p)
  in
  let fires = ref 0 in
  List.iter (fun p -> Simnet.set_handler p (fun _ -> incr fires)) procs;
  let src = List.hd procs in
  (* Built once: an extension constructor's block is allocated per use. *)
  let ping = Ping 0 in
  let send =
    if loopback then fun () -> Simnet.mcast net ~loopback:true ~src g ~size:1000 ping
    else fun () -> Simnet.mcast net ~src g ~size:1000 ping
  in
  let stop = Simnet.every_tk net ~ticks:(Sim.Engine.ticks_of_duration 1.0e-4) send in
  Sim.Engine.run engine ~until:0.1;
  let f0 = !fires and d0 = Simnet.switch_drops net in
  let w0 = Gc.minor_words () in
  Sim.Engine.run engine ~until:0.2;
  let words = Gc.minor_words () -. w0 in
  let msgs = !fires - f0 and drops = Simnet.switch_drops net - d0 in
  stop ();
  Sim.Engine.run_all engine;
  Alcotest.(check int) "pool whole at quiescence" (Simnet.pool_allocated net)
    (Simnet.pool_free net);
  (msgs, drops, words /. float_of_int (Stdlib.max 1 msgs))

let test_steady_mcast_allocates_nothing () =
  let lossy_switch = { quiet with mcast_capacity = 1.0e7; udp_base_loss = 0.01 } in
  List.iter
    (fun (name, config, loopback, lossy) ->
      let msgs, drops, per_msg = steady_mcast_words ~config ~loopback in
      Alcotest.(check bool) (name ^ ": the run made progress") true (msgs > 1000);
      Alcotest.(check bool) (name ^ ": drops iff lossy") lossy (drops > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f minor words per delivered message" name per_msg)
        true (per_msg < 0.01))
    [ ("no loopback", quiet, false, false);
      ("loopback", quiet, true, false);
      ("lossy", lossy_switch, false, true);
      ("lossy loopback", lossy_switch, true, true) ]

(* A seeded run with a tracer attached: window-limited sends, a receiver
   crash with messages in flight and parked, recovery, more sends.  The
   Chrome export embeds every hop's timing, so its digest pins the
   message path's schedule. *)
let test_traced_run_golden () =
  let engine, net = make ~seed:77 () in
  let a, b = pair net in
  Simnet.set_rcvbuf b 4096;
  let tr = Trace.create () in
  Simnet.set_tracer net (Some tr);
  let fires = ref 0 in
  Simnet.set_handler b (fun m ->
      incr fires;
      if m.size < 2048 then Simnet.send net ~src:b ~dst:a ~size:(m.size * 2) m.payload);
  Simnet.set_handler a (fun m ->
      incr fires;
      Simnet.send net ~src:a ~dst:b ~size:512 m.payload);
  for i = 1 to 16 do
    Simnet.send net ~src:a ~dst:b ~size:(256 + (16 * i)) (Ping i)
  done;
  ignore (Sim.Engine.at engine ~time:2.0e-3 (fun () -> Simnet.kill net b));
  ignore (Sim.Engine.at engine ~time:4.0e-3 (fun () -> Simnet.recover net b));
  ignore
    (Sim.Engine.at engine ~time:4.5e-3 (fun () ->
         for i = 1 to 8 do
           Simnet.send net ~src:a ~dst:b ~size:512 (Ping i)
         done));
  Sim.Engine.run engine ~until:0.05;
  Alcotest.(check int) "deliveries" 5039 !fires;
  Alcotest.(check string) "trace export digest" "e841ffdd32d296c78383556e74c4ba62"
    (Digest.to_hex (Digest.string (Trace.to_chrome_json tr)))

let suite =
  [ Alcotest.test_case "handler borrow is reclaimed" `Quick
      test_borrow_reclaimed_after_handler;
    Alcotest.test_case "pool consistent across kill/recover" `Quick
      test_pool_consistent_across_kill_recover;
    QCheck_alcotest.to_alcotest prop_random_lifecycle;
    QCheck_alcotest.to_alcotest prop_backlog_ring_matches_queue;
    Alcotest.test_case "backlog ring memory bounded" `Quick
      test_backlog_ring_memory_bounded;
    Alcotest.test_case "steady unicast allocates nothing" `Quick
      test_steady_unicast_allocates_nothing;
    Alcotest.test_case "jittered unicast allocates nothing" `Quick
      test_jittered_unicast_allocates_nothing;
    Alcotest.test_case "disabled tracer allocates nothing" `Quick
      test_disabled_tracer_allocates_nothing;
    Alcotest.test_case "steady multicast fan-out allocates nothing" `Quick
      test_steady_mcast_allocates_nothing;
    Alcotest.test_case "traced kill/recover run matches golden digest" `Quick
      test_traced_run_golden ]
