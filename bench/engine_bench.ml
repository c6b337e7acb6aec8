(* `engine`: microbench of the discrete-event core on the three patterns
   that dominate real experiment runs: schedule-heavy (every fired event
   re-arms), cancel-heavy (the failure-detector / Retry cancel-on-ack
   pattern) and a mixed simnet-like blend.  A fourth workload drives the
   integer-tick scheduling path and asserts the zero-allocation claim,
   and four simnet workloads measure the message path.  Results go to
   stdout and BENCH_engine.json so CI records the trajectory. *)

let out_file = "BENCH_engine.json"

type sample = {
  workload : string;
  events : int;
  elapsed_s : float;
  events_per_sec : float;
  minor_words_per_event : float;
}

(* Cheap deterministic int stream (the sim RNG draws floats; here every
   draw must stay in int registers). *)
let lcg state = ((state * 0x2545F4914F6CDD1D) + 0x3779B97F4A7C15) land max_int

let measure ~workload f =
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  let fired = f () in
  let elapsed = Sys.time () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let elapsed = if elapsed <= 0.0 then 1e-9 else elapsed in
  { workload;
    events = fired;
    elapsed_s = elapsed;
    events_per_sec = float_of_int fired /. elapsed;
    minor_words_per_event = words /. float_of_int (max 1 fired) }

(* Every fired event re-arms itself at a pseudo-random short delay:
   the pure schedule+fire path, one shared closure per timer chain. *)
let schedule_heavy () =
  let e = Sim.Engine.create () in
  let target = 1_500_000 in
  let fires = ref 0 in
  let rng = ref 0x12345 in
  let rec arm () =
    incr fires;
    if !fires < target then begin
      rng := lcg !rng;
      let d = float_of_int (1 + (!rng land 0xFFF)) *. 1e-6 in
      ignore (Sim.Engine.schedule e ~delay:d arm)
    end
  in
  for i = 1 to 2048 do
    ignore (Sim.Engine.schedule e ~delay:(float_of_int i *. 1e-6) arm)
  done;
  measure ~workload:"schedule-heavy" (fun () ->
      Sim.Engine.run_all e;
      !fires)

(* Failure-detector re-arm: each monitor fire cancels its outstanding
   long timeout, arms a fresh one (which will in turn be cancelled) and
   re-arms itself — 2 schedules + 1 cancel per fired event, with ~half
   the queue cancelled at any time. *)
let cancel_heavy () =
  let e = Sim.Engine.create () in
  let target = 1_000_000 in
  let monitors = 1024 in
  let fires = ref 0 in
  let noop () = () in
  let handles = Array.make monitors (Sim.Engine.schedule e ~delay:9.0e3 noop) in
  let rng = ref 0xBEEF in
  let monitor i =
    let rec fire () =
      incr fires;
      if !fires < target then begin
        Sim.Engine.cancel e handles.(i);
        handles.(i) <- Sim.Engine.schedule e ~delay:0.5 noop;
        rng := lcg !rng;
        let d = float_of_int (16 + (!rng land 0x3FF)) *. 1e-6 in
        ignore (Sim.Engine.schedule e ~delay:d fire)
      end
    in
    fire
  in
  for i = 0 to monitors - 1 do
    Sim.Engine.cancel e handles.(i);
    handles.(i) <- Sim.Engine.schedule e ~delay:0.5 noop;
    ignore (Sim.Engine.schedule e ~delay:(float_of_int (i + 1) *. 1e-6) (monitor i))
  done;
  measure ~workload:"cancel-heavy" (fun () ->
      Sim.Engine.run_all e;
      !fires)

(* Simnet-like blend: short transmit chains, 100 ms heartbeats (a deeper
   wheel level), a retry armed every 8th fire and cancelled (acked) on
   the next fire of the same chain, and a far-future (overflow-level)
   watchdog per chain. *)
let mixed () =
  let e = Sim.Engine.create () in
  let target = 1_200_000 in
  let chains = 256 in
  let fires = ref 0 in
  let noop () = () in
  let retries = Array.make chains (Sim.Engine.schedule e ~delay:9.0e3 noop) in
  let rng = ref 0xC0FFEE in
  let chain i =
    let rec fire () =
      incr fires;
      if !fires < target then begin
        Sim.Engine.cancel e retries.(i);
        rng := lcg !rng;
        if !rng land 7 = 0 then
          retries.(i) <- Sim.Engine.schedule e ~delay:0.05 noop;
        rng := lcg !rng;
        let d = float_of_int (25 + (!rng land 0xFF)) *. 1e-6 in
        ignore (Sim.Engine.schedule e ~delay:d fire)
      end
    in
    fire
  in
  let rec heartbeat () =
    incr fires;
    if !fires < target then ignore (Sim.Engine.schedule e ~delay:0.1 heartbeat)
  in
  for i = 0 to chains - 1 do
    ignore (Sim.Engine.schedule e ~delay:(float_of_int (i + 1) *. 1e-6) (chain i));
    ignore (Sim.Engine.schedule e ~delay:2.0e3 noop)
  done;
  ignore (Sim.Engine.schedule e ~delay:0.1 heartbeat);
  measure ~workload:"mixed-simnet" (fun () ->
      Sim.Engine.run_all e;
      !fires)

(* Integer-tick scheduling: after a warm-up pass grows the pool and the
   slot arrays, a steady-state schedule/fire cycle through
   [schedule_ticks] must allocate nothing at all on the wheel. *)
let zero_alloc () =
  let e = Sim.Engine.create () in
  let fires = ref 0 in
  let limit = ref 0 in
  let rng = ref 0xFEED in
  let rec arm () =
    incr fires;
    if !fires < !limit then begin
      rng := lcg !rng;
      ignore (Sim.Engine.schedule_ticks e ~ticks:(1 + (!rng land 0x3FF)) arm)
    end
  in
  let seed () =
    for i = 1 to 512 do
      ignore (Sim.Engine.schedule_ticks e ~ticks:i arm)
    done
  in
  (* Warm-up: grow pool, slots and heaps to steady-state capacity. *)
  limit := 100_000;
  seed ();
  Sim.Engine.run_all e;
  fires := 0;
  limit := 1_000_000;
  seed ();
  measure ~workload:"zero-alloc-ticks" (fun () ->
      Sim.Engine.run_all e;
      !fires)

(* --- simnet message-path workloads ---------------------------------------

   Jitter and base loss are disabled so the unicast workload exercises the
   pure zero-allocation Deliver path. *)

let simnet_config =
  { Simnet.default_config with latency = 1.0e-6; latency_jitter = 0.0 }

(* Warm a workload to steady state (pool, rings and wheel slots grown),
   then measure [warmup, until] of virtual time.  Each virtual run is
   deterministic, so the allocation counts are exact. *)
let sim_measure ~workload ~warmup ~until setup =
  let e, fires = setup () in
  Gc.compact ();
  Sim.Engine.run e ~until:warmup;
  let f0 = !fires in
  measure ~workload (fun () ->
      Sim.Engine.run e ~until;
      !fires - f0)

(* Steady unicast ping-pong over TCP-like connections: 8 independent
   pairs, each handler echoes the message back.  The measured interval
   must allocate nothing (CI gates on it). *)
let net_unicast () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create 4242 in
  let net = Simnet.create ~config:simnet_config e rng in
  let fires = ref 0 in
  for i = 0 to 7 do
    let na = Simnet.add_node net (Printf.sprintf "a%d" i) in
    let nb = Simnet.add_node net (Printf.sprintf "b%d" i) in
    let pa = Simnet.add_proc net na "pa" in
    let pb = Simnet.add_proc net nb "pb" in
    Simnet.set_handler pb (fun m ->
        incr fires;
        Simnet.send net ~src:pb ~dst:pa ~size:m.size m.payload);
    Simnet.set_handler pa (fun m ->
        incr fires;
        Simnet.send net ~src:pa ~dst:pb ~size:m.size m.payload);
    Simnet.send net ~src:pa ~dst:pb ~size:512 Simnet.Noop
  done;
  (e, fires)

(* Switch fan-out: one multicast round of 8 deliveries at a time; the
   last receiver of a round fires the next round. *)
let net_fanout () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create 4243 in
  let net = Simnet.create ~config:simnet_config e rng in
  let fires = ref 0 in
  let ns = Simnet.add_node net "sender" in
  let ps = Simnet.add_proc net ns "ps" in
  let g = Simnet.new_group net "fan" in
  let pending = ref 0 in
  for i = 0 to 7 do
    let n = Simnet.add_node net (Printf.sprintf "r%d" i) in
    let p = Simnet.add_proc net n "pr" in
    Simnet.join g p;
    Simnet.set_handler p (fun m ->
        incr fires;
        decr pending;
        if !pending = 0 then begin
          pending := 8;
          Simnet.mcast net ~src:ps g ~size:m.size m.payload
        end)
  done;
  pending := 8;
  Simnet.mcast net ~src:ps g ~size:512 Simnet.Noop;
  (e, fires)

(* Window-limited flow: a 4 KB receive window against 1 KB messages keeps
   a ~64-message backlog parked on the connection, so every delivery goes
   through a backlog push + drain on the connection's ring. *)
let net_backlog () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create 4244 in
  let net = Simnet.create ~config:simnet_config e rng in
  let fires = ref 0 in
  let na = Simnet.add_node net "src" in
  let nb = Simnet.add_node net "dst" in
  let pa = Simnet.add_proc net na "pa" in
  let pb = Simnet.add_proc net nb "pb" in
  Simnet.set_rcvbuf pb 4096;
  Simnet.set_handler pb (fun m ->
      incr fires;
      Simnet.send net ~src:pa ~dst:pb ~size:m.size m.payload);
  for _ = 1 to 64 do
    Simnet.send net ~src:pa ~dst:pb ~size:1024 Simnet.Noop
  done;
  (e, fires)

(* Ping-pong pairs, deeply backlogged window-limited flows and a
   periodic multicast fan-out sharing one network.  The window flows keep
   thousands of messages parked on connections the way an SMR sender
   parks a deep proposal window; the parked population lives in
   preallocated ring and pool slots, so the GC never sees it. *)
let net_mixed () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create 4245 in
  let net = Simnet.create ~config:simnet_config e rng in
  let fires = ref 0 in
  let g = Simnet.new_group net "all" in
  for i = 0 to 1 do
    let na = Simnet.add_node net (Printf.sprintf "a%d" i) in
    let nb = Simnet.add_node net (Printf.sprintf "b%d" i) in
    let pa = Simnet.add_proc net na "pa" in
    let pb = Simnet.add_proc net nb "pb" in
    Simnet.join g pa;
    Simnet.join g pb;
    Simnet.set_handler pb (fun m ->
        incr fires;
        if m.dst >= 0 then Simnet.send net ~src:pb ~dst:pa ~size:m.size m.payload);
    Simnet.set_handler pa (fun m ->
        incr fires;
        if m.dst >= 0 then Simnet.send net ~src:pa ~dst:pb ~size:m.size m.payload);
    Simnet.send net ~src:pa ~dst:pb ~size:256 Simnet.Noop
  done;
  for i = 0 to 7 do
    let nc = Simnet.add_node net (Printf.sprintf "win-src%d" i) in
    let nd = Simnet.add_node net (Printf.sprintf "win-dst%d" i) in
    let pc = Simnet.add_proc net nc "pc" in
    let pd = Simnet.add_proc net nd "pd" in
    (* 1 MB window over 1 KB messages: ~1024 message records in flight
       per flow, each alive for the whole window's worth of service
       time. *)
    Simnet.set_rcvbuf pd (1024 * 1024);
    Simnet.set_handler pd (fun m ->
        incr fires;
        Simnet.send net ~src:pc ~dst:pd ~size:m.size m.payload);
    for _ = 1 to 2048 do
      Simnet.send net ~src:pc ~dst:pd ~size:1024 Simnet.Noop
    done
  done;
  let nm = Simnet.add_node net "mc" in
  let pm = Simnet.add_proc net nm "pm" in
  let (_cancel : unit -> unit) =
    Simnet.every_tk net
      ~ticks:(Sim.Engine.ticks_of_duration 5.0e-5)
      (fun () -> Simnet.mcast net ~src:pm g ~size:256 Simnet.Noop)
  in
  (e, fires)

let json_of_sample s =
  Printf.sprintf
    "{\"workload\":%S,\"events\":%d,\"elapsed_s\":%.6f,\"events_per_sec\":%.1f,\"minor_words_per_event\":%.4f}"
    s.workload s.events s.elapsed_s s.events_per_sec s.minor_words_per_event

let print_samples ~unit_name ~per samples =
  Printf.printf "%-18s %12s %14s %10s\n" "workload" unit_name (unit_name ^ "/sec") per;
  List.iter
    (fun s ->
      Printf.printf "%-18s %12d %14.0f %10.4f\n" s.workload s.events s.events_per_sec
        s.minor_words_per_event)
    samples

let run () =
  Util.header "Engine microbench (events/sec, minor words/event)";
  let samples = List.map (fun w -> w ()) [ schedule_heavy; cancel_heavy; mixed; zero_alloc ] in
  print_samples ~unit_name:"events" ~per:"words/ev" samples;
  let zero_alloc_words =
    (List.find (fun s -> s.workload = "zero-alloc-ticks") samples).minor_words_per_event
  in
  Printf.printf "\nzero-alloc path: %.4f minor words/event\n" zero_alloc_words;
  Util.header "Simnet message path (messages/sec, minor words/message)";
  let net_samples =
    List.map
      (fun (workload, setup, warmup, until) -> sim_measure ~workload ~warmup ~until setup)
      [ ("net-unicast", net_unicast, 0.5, 8.5);
        ("net-fanout", net_fanout, 0.5, 6.5);
        ("net-backlog", net_backlog, 0.5, 6.5);
        ("net-mixed", net_mixed, 0.25, 2.75) ]
  in
  print_samples ~unit_name:"msgs" ~per:"words/msg" net_samples;
  let unicast_words =
    (List.find (fun s -> s.workload = "net-unicast") net_samples).minor_words_per_event
  in
  Printf.printf "\nunicast Deliver path: %.4f minor words/message\n" unicast_words;
  let oc = open_out out_file in
  Printf.fprintf oc
    "{\n\
     \"bench\":\"engine\",\n\
     \"ticks_per_second\":%d,\n\
     \"samples\":[\n\
     %s\n\
     ],\n\
     \"simnet_samples\":[\n\
     %s\n\
     ],\n\
     \"summary\":{\"zero_alloc_minor_words_per_event\":%.4f,\"simnet_unicast_minor_words_per_msg\":%.4f}\n\
     }\n"
    Sim.Engine.ticks_per_second
    (String.concat ",\n" (List.map json_of_sample samples))
    (String.concat ",\n" (List.map json_of_sample net_samples))
    zero_alloc_words unicast_words;
  close_out oc;
  Printf.printf "wrote %s\n%!" out_file
