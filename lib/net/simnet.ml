type payload = ..

type payload += Noop

(* Tick grid shared with the engine: 2^20 ticks per second.  All hot-path
   times are integer ticks; the float equivalents below are exact for any
   tick count < 2^52, so converting back and forth loses nothing. *)
let tick_scale = float_of_int Sim.Engine.ticks_per_second
let tick_width = 1.0 /. tick_scale

let[@inline] tf tk = float_of_int tk *. tick_width

(* Round-to-nearest quantization of a duration (matches
   [Sim.Engine.ticks_of_duration]); never negative. *)
let[@inline] tk_of_dur d =
  let x = (d *. tick_scale) +. 0.5 in
  if x <= 0.0 then 0 else int_of_float x

let nop () = ()

type costs = {
  mutable recv_per_msg : float;
  mutable recv_per_byte : float;
  mutable send_per_msg : float;
  mutable send_per_byte : float;
}

type node = {
  node_id : int;
  nname : string;
  cpu : Resource.t;
  nic_out : Resource.t;
  nic_in : Resource.t;
  mutable cpu_factor : float;
  lat_factor : float;
}

(* The message record is pooled: [m_i] carries the pooling/routing state
   (generation, refcount, per-hop continuations) while the public fields
   are rewritten in place on every reuse. *)
type msg = {
  mutable src : int;
  mutable dst : int;
  mutable size : int;
  mutable payload : payload;
  mutable sent_tk : int;
  mutable tid : int;
  m_i : minternal;
}

and minternal = {
  mutable live : bool; (* out of the freelist: guards against a double reclaim *)
  mutable udp : bool; (* a multicast copy: a full receive buffer drops it *)
  mutable credit : bool; (* should credit the TCP window when consumed *)
  mutable srcp : proc;
  mutable dstp : proc; (* concrete destination (dst = -1 for multicast) *)
  mutable cn : conn;
  mutable cepoch : int; (* conn epoch at send: stale credits are voided *)
  mutable bufep : int; (* rcvbuf epoch at accept: stale credits voided *)
  mutable arr_tk : int; (* arrival tick at the destination NIC (switch hop: its own tick) *)
  mutable grp : group; (* switch hop only: the destination group *)
  mutable loop : bool; (* switch hop only: deliver to the sender too *)
  (* Per-hop continuations, built once at record birth so steady-state
     scheduling allocates no closures. *)
  mutable k1 : unit -> unit; (* arrival: occupy nic_in *)
  mutable k2 : unit -> unit; (* rx done: buffer accept, occupy cpu *)
  mutable k3 : unit -> unit; (* served: run handler, reclaim *)
  mutable kc : unit -> unit; (* consume-only (fault drops) *)
  mutable ks : unit -> unit; (* switch: loss model, fan-out, reclaim *)
}

and proc = {
  p_id : int;
  p_name : string;
  p_node : node;
  mutable handler : msg -> unit;
  mutable alive : bool;
  mutable rcvbuf_cap : int;
  mutable rcvbuf_used : int;
  (* Bumped by [recover]: deliveries that charged the buffer in an earlier
     incarnation must not credit it back after the reset (their epoch no
     longer matches), or the counter goes negative and overflow drops stop
     firing. *)
  mutable rcvbuf_epoch : int;
  p_costs : costs;
  p_recv : Sim.Stats.Rate.t;
  p_sent : Sim.Stats.Rate.t;
  mutable p_drops : int;
  mutable p_mem : int;
}

(* Per-(src,dst) reliable-connection state: [in_flight] counts bytes accepted
   by the network but not yet consumed by the receiver's handler; sends that
   would exceed the receiver window wait in the backlog, a grow-only ring
   of parallel arrays (no allocation per deferred send once the ring has
   grown). *)
and conn = {
  mutable in_flight : int;
  (* Bumped when [kill] resets the connection: window credits from
     deliveries accepted under the old incarnation must not decrement the
     fresh [in_flight] (which would drive it negative and let later sends
     overrun the receiver window). *)
  mutable c_epoch : int;
  mutable b_size : int array;
  mutable b_sent : int array;
  mutable b_tid : int array;
  mutable b_pay : payload array;
  mutable b_head : int;
  mutable b_len : int;
}

and group = {
  g_id : int;
  g_name : string;
  mutable g_members : proc list;
  (* Per-group multicast rate tracking: a switch replicates a group's
     traffic only onto its members' egress ports, so disjoint groups do not
     share capacity (this is what lets Multi-Ring Paxos scale).  The floats
     live unboxed in [g_f] (slots below); the sender set is a pair of
     parallel grow-only arrays of pids and last-send times. *)
  g_f : Float.Array.t;
  mutable g_spid : int array;
  mutable g_slast : Float.Array.t;
  mutable g_nsend : int;
}

(* Slots of [g_f]. *)
let g_rate = 0 (* EMA of the group's offered rate, bit/s *)
let g_last = 1 (* time of the last rate update *)
let g_pending = 2 (* bits sent since [g_last] *)
let g_loss = 3 (* loss probability of the packet at the switch *)

type config = {
  latency : float;
  latency_jitter : float;
  bandwidth : float;
  multicast_available : bool;
  mcast_capacity : float;
  udp_base_loss : float;
}

(* Ethernet MTU, and the header bytes each MTU frame adds on the wire. *)
let mtu = 1500
let frame_overhead = 52

(* Every process's receive buffer, bytes. *)
let default_rcvbuf = 16 * 1024 * 1024

let default_costs () =
  { recv_per_msg = 4.0e-6;
    recv_per_byte = 1.8e-9;
    send_per_msg = 4.5e-6;
    send_per_byte = 4.5e-9 }

let default_config =
  { latency = 5.0e-5;
    latency_jitter = 0.05;
    bandwidth = 1.0e9;
    multicast_available = true;
    mcast_capacity = 1.0e9;
    udp_base_loss = 0.0 }

(* Verdict of the fault tap for one (message, destination) pair. *)
type fault = Deliver | Drop | Delay of float | Duplicate of float

type t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  cfg : config;
  cell : float array; (* the engine clock cell; reads don't box *)
  mutable nodes : node list;
  procs : (int, proc) Hashtbl.t;
  mutable nprocs : int;
  mutable ngroups : int;
  conns : (int, conn) Hashtbl.t; (* key = src lsl 20 lor dst *)
  mutable mc_drops : int;
  mutable mc_packets : int;
  mutable fault_tap : (msg -> dst:proc -> fault) option;
  mutable tracer : Trace.t option;
  mutable next_tid : int;
  dummy_proc : proc;
  dummy_conn : conn;
  dummy_group : group;
  (* Message pool: [n_all] counts every record ever born, [free] is the
     recycle stack. *)
  mutable n_all : int;
  mutable free : msg array;
  mutable n_free : int;
}

let new_conn () =
  { in_flight = 0;
    c_epoch = 0;
    b_size = Array.make 8 0;
    b_sent = Array.make 8 0;
    b_tid = Array.make 8 0;
    b_pay = Array.make 8 Noop;
    b_head = 0;
    b_len = 0 }

let make_group id name =
  { g_id = id;
    g_name = name;
    g_members = [];
    g_f = Float.Array.make 4 0.0;
    g_spid = Array.make 4 0;
    g_slast = Float.Array.make 4 0.0;
    g_nsend = 0 }

let create ?(config = default_config) engine rng =
  let dummy_node =
    { node_id = -1;
      nname = "<none>";
      cpu = Resource.create "<none>.cpu";
      nic_out = Resource.create "<none>.out";
      nic_in = Resource.create "<none>.in";
      cpu_factor = 1.0;
      lat_factor = 1.0 }
  in
  let dummy_proc =
    { p_id = -1;
      p_name = "<none>";
      p_node = dummy_node;
      handler = (fun _ -> ());
      alive = false;
      rcvbuf_cap = 0;
      rcvbuf_used = 0;
      rcvbuf_epoch = 0;
      p_costs = default_costs ();
      p_recv = Sim.Stats.Rate.create ();
      p_sent = Sim.Stats.Rate.create ();
      p_drops = 0;
      p_mem = 0 }
  in
  { engine;
    rng;
    cfg = config;
    cell = Sim.Engine.now_cell engine;
    nodes = [];
    procs = Hashtbl.create 64;
    nprocs = 0;
    ngroups = 0;
    conns = Hashtbl.create 64;
    mc_drops = 0;
    mc_packets = 0;
    fault_tap = None;
    tracer = None;
    next_tid = 0;
    dummy_proc;
    dummy_conn = new_conn ();
    dummy_group = make_group 0 "<none>";
    n_all = 0;
    free = [||];
    n_free = 0 }

let engine t = t.engine
let config t = t.cfg
let now t = Sim.Engine.now t.engine

(* Current tick, truncating like [Sim.Engine.ticks_of_time]: events fired
   on the grid read their own tick back exactly. *)
let[@inline] now_tk t = int_of_float (Array.unsafe_get t.cell 0 *. tick_scale)

let add_node ?(cpu_factor = 1.0) ?(lat_factor = 1.0) t name =
  let id = List.length t.nodes in
  let n =
    { node_id = id;
      nname = name;
      cpu = Resource.create (name ^ ".cpu");
      nic_out = Resource.create (name ^ ".out");
      nic_in = Resource.create (name ^ ".in");
      cpu_factor;
      lat_factor }
  in
  t.nodes <- n :: t.nodes;
  n

let add_proc t node name =
  let p =
    { p_id = t.nprocs;
      p_name = name;
      p_node = node;
      handler = (fun _ -> ());
      alive = true;
      rcvbuf_cap = default_rcvbuf;
      rcvbuf_used = 0;
      rcvbuf_epoch = 0;
      p_costs = default_costs ();
      p_recv = Sim.Stats.Rate.create ();
      p_sent = Sim.Stats.Rate.create ();
      p_drops = 0;
      p_mem = 0 }
  in
  Hashtbl.add t.procs t.nprocs p;
  t.nprocs <- t.nprocs + 1;
  (match t.tracer with
  | Some tr -> Trace.register tr ~pid:p.p_id ~name
  | None -> ());
  p

(* [set_tracer] opens a fresh pid namespace in the tracer (several nets may
   share one trace file) and registers every existing process; processes
   added later register themselves.  Recording never schedules events or
   consumes randomness, so installing a tracer cannot change a run. *)
let set_tracer t tr =
  t.tracer <- tr;
  match tr with
  | Some tr ->
      Trace.new_run tr;
      Hashtbl.iter (fun pid p -> Trace.register tr ~pid ~name:p.p_name) t.procs
  | None -> ()

let tracer t = t.tracer

(* Fresh per-message causal id.  A plain counter, deterministic and
   allocated whether or not a tracer is installed, so trace-on and
   trace-off runs execute identically. *)
let alloc_tid t =
  t.next_tid <- t.next_tid + 1;
  t.next_tid

let pid p = p.p_id
let proc_name p = p.p_name
let proc_node p = p.p_node
let node_name n = n.nname

let proc_of t id =
  match Hashtbl.find_opt t.procs id with
  | Some p -> p
  | None -> invalid_arg "Simnet.proc_of: unknown pid"

let set_handler p f = p.handler <- f

let handler_of p = p.handler
let set_rcvbuf p n = p.rcvbuf_cap <- n
let rcvbuf p = p.rcvbuf_cap
let rcvbuf_used p = p.rcvbuf_used
let costs_of p = p.p_costs
let set_mem p n = p.p_mem <- n
let mem p = p.p_mem
let recv_rate p = p.p_recv
let sent_rate p = p.p_sent
let drops p = p.p_drops
let switch_drops t = t.mc_drops
let mcast_packets t = t.mc_packets
let cpu_busy n = Resource.busy n.cpu
let is_alive p = p.alive
let sent_at (m : msg) = float_of_int m.sent_tk *. tick_width

let wire_size size =
  let payload_per_frame = mtu - 48 in
  let frames = (size + payload_per_frame - 1) / payload_per_frame in
  let frames = if frames < 1 then 1 else frames in
  size + (frames * frame_overhead)

(* Serialisation time of [size] payload bytes, in ticks (rounded to
   nearest).  The float arithmetic is local, so nothing boxes. *)
let[@inline] trans_tk t size =
  let secs = float_of_int (wire_size size) *. 8.0 /. t.cfg.bandwidth in
  let x = (secs *. tick_scale) +. 0.5 in
  if x <= 0.0 then 0 else int_of_float x

(* Propagation delay in ticks.  The jitter is [Rng.float rng jitter]
   computed here from the int draw behind it: a float returned across the
   module boundary would box on every message.  Zero jitter draws
   nothing. *)
let[@inline] prop_tk t src dst =
  let base = t.cfg.latency *. 0.5 *. (src.p_node.lat_factor +. dst.p_node.lat_factor) in
  let d =
    if t.cfg.latency_jitter = 0.0 then base
    else
      let b = float_of_int (Sim.Rng.bits53 t.rng) in
      base *. (1.0 +. (t.cfg.latency_jitter *. b /. 9007199254740992.0 (* 2^53 *)))
  in
  let x = (d *. tick_scale) +. 0.5 in
  if x <= 0.0 then 0 else int_of_float x

let set_fault_tap t tap = t.fault_tap <- tap
let set_cpu_factor n f = n.cpu_factor <- f
let node_cpu_factor n = n.cpu_factor

(* Connections are keyed by a packed pid pair (20 bits each), so lookup
   hashes an immediate int and allocates nothing. *)
let[@inline] conn_key src dst = (src lsl 20) lor (dst land 0xFFFFF)

let conn_of t src dst =
  let key = conn_key src.p_id dst.p_id in
  match Hashtbl.find t.conns key with
  | c -> c
  | exception Not_found ->
      let c = new_conn () in
      Hashtbl.add t.conns key c;
      c

(* Backlog ring: push may grow (doubling, compacting to index 0); pop is
   from the head.  Payload slots are cleared on pop/clear so the ring never
   roots dead payloads. *)
let ring_push conn ~size ~payload ~sent_tk ~tid =
  let cap = Array.length conn.b_size in
  if conn.b_len = cap then begin
    let ncap = cap * 2 in
    let ns = Array.make ncap 0
    and nn = Array.make ncap 0
    and nt = Array.make ncap 0
    and np = Array.make ncap Noop in
    for i = 0 to conn.b_len - 1 do
      let j = (conn.b_head + i) land (cap - 1) in
      ns.(i) <- conn.b_size.(j);
      nn.(i) <- conn.b_sent.(j);
      nt.(i) <- conn.b_tid.(j);
      np.(i) <- conn.b_pay.(j)
    done;
    conn.b_size <- ns;
    conn.b_sent <- nn;
    conn.b_tid <- nt;
    conn.b_pay <- np;
    conn.b_head <- 0
  end;
  let mask = Array.length conn.b_size - 1 in
  let idx = (conn.b_head + conn.b_len) land mask in
  Array.unsafe_set conn.b_size idx size;
  Array.unsafe_set conn.b_sent idx sent_tk;
  Array.unsafe_set conn.b_tid idx tid;
  conn.b_pay.(idx) <- payload;
  conn.b_len <- conn.b_len + 1

let clear_backlog conn =
  let mask = Array.length conn.b_size - 1 in
  for i = 0 to conn.b_len - 1 do
    conn.b_pay.((conn.b_head + i) land mask) <- Noop
  done;
  conn.b_head <- 0;
  conn.b_len <- 0

(* Wire-propagation span, emitted at send time (also for messages a fault
   tap later drops or delays, like the pre-tap model). *)
let trace_prop t ~tid src ~tx_done_tk ~arr_tk =
  match t.tracer with
  | None -> ()
  | Some tr when Trace.enabled tr ->
      Trace.span tr ~id:tid ~pid:src.p_id ~cat:"wire" ~name:"prop" ~ts:(tf tx_done_tk)
        ~dur:(tf (arr_tk - tx_done_tk))
  | Some _ -> ()

(* Charge the sender CPU and the outgoing link; returns the tick when the
   last bit leaves the sender NIC.  Each resource acquisition splits into
   queueing (start - request) and service time; the tracer records both.
   The first wait span is measured from the true (possibly off-grid) clock
   so trace output is unchanged by quantization of later hops. *)
let sender_side_tk t ~tid src size =
  let c = src.p_costs in
  let now_f = Array.unsafe_get t.cell 0 in
  let at_tk = now_tk t in
  let cpu_tk =
    let d = (c.send_per_msg +. (c.send_per_byte *. float_of_int size)) *. src.p_node.cpu_factor in
    let x = (d *. tick_scale) +. 0.5 in
    if x <= 0.0 then 0 else int_of_float x
  in
  let cpu_done_tk = Resource.acquire_tk src.p_node.cpu ~at_tk ~dur_tk:cpu_tk in
  let cpu_start_tk = Resource.last_start_tk src.p_node.cpu in
  let tx_tk = trans_tk t size in
  let tx_done_tk = Resource.acquire_tk src.p_node.nic_out ~at_tk:cpu_done_tk ~dur_tk:tx_tk in
  let tx_start_tk = Resource.last_start_tk src.p_node.nic_out in
  Sim.Stats.Rate.add_cell src.p_sent ~now_cell:t.cell ~bytes:size;
  (match t.tracer with
  | None -> ()
  | Some tr when Trace.enabled tr ->
      let pid = src.p_id in
      let cpu_start = tf cpu_start_tk in
      if cpu_start > now_f then
        Trace.span tr ~id:tid ~pid ~cat:"queue" ~name:"send-cpu-wait" ~ts:now_f
          ~dur:(cpu_start -. now_f);
      Trace.span tr ~id:tid ~pid ~cat:"cpu" ~name:"send-cpu" ~ts:cpu_start ~dur:(tf cpu_tk);
      let cpu_done = tf cpu_done_tk in
      let tx_start = tf tx_start_tk in
      if tx_start > cpu_done then
        Trace.span tr ~id:tid ~pid ~cat:"queue" ~name:"nic-out-wait" ~ts:cpu_done
          ~dur:(tx_start -. cpu_done);
      Trace.span tr ~id:tid ~pid ~cat:"wire" ~name:"nic-out" ~ts:tx_start ~dur:(tf tx_tk)
  | Some _ -> ());
  tx_done_tk

(* ------------------------------------------------------------------ *)
(* The switch's multicast loss model.  Every float stays in a local or *)
(* in the group's float arrays, so a packet boxes nothing.             *)
(* ------------------------------------------------------------------ *)

(* Restamp [pid] as a sender at the current time, appending it on first
   sight. *)
let mc_note_sender t g pid =
  let k = ref 0 in
  while !k < g.g_nsend && Array.unsafe_get g.g_spid !k <> pid do
    incr k
  done;
  if !k = g.g_nsend then begin
    let cap = Array.length g.g_spid in
    if g.g_nsend = cap then begin
      let np = Array.make (2 * cap) 0 and nl = Float.Array.make (2 * cap) 0.0 in
      Array.blit g.g_spid 0 np 0 cap;
      Float.Array.blit g.g_slast 0 nl 0 cap;
      g.g_spid <- np;
      g.g_slast <- nl
    end;
    Array.unsafe_set g.g_spid !k pid;
    g.g_nsend <- g.g_nsend + 1
  end;
  Float.Array.unsafe_set g.g_slast !k (Array.unsafe_get t.cell 0)

(* Per-group multicast-rate tracking: exponential moving average; the
   sender set decays after 100 ms of silence.  Leaves the packet's loss
   probability in [g_f.(g_loss)]: zero below a threshold that shrinks as
   concurrent senders are added, then rising linearly (Fig. 3.3's
   mechanism).  Groups are independent: a switch replicates each group
   only onto its own members' egress ports. *)
let mc_update t g src size =
  let n = Array.unsafe_get t.cell 0 in
  let f = g.g_f in
  mc_note_sender t g src.p_id;
  Float.Array.unsafe_set f g_pending
    (Float.Array.unsafe_get f g_pending +. (float_of_int (wire_size size) *. 8.0));
  let dt = n -. Float.Array.unsafe_get f g_last in
  (* Packets sent at the same instant accumulate until time advances, so
     simultaneous senders are counted at their true aggregate rate. *)
  if dt > 0.0 then begin
    Float.Array.unsafe_set f g_last n;
    let inst = Float.Array.unsafe_get f g_pending /. dt in
    Float.Array.unsafe_set f g_pending 0.0;
    (* A ~50 ms time constant: short line-rate bursts are absorbed the way
       switch buffers absorb them; only sustained overload drops packets. *)
    let alpha = dt /. 0.05 in
    let alpha = if alpha > 1.0 then 1.0 else alpha in
    Float.Array.unsafe_set f g_rate
      (((1.0 -. alpha) *. Float.Array.unsafe_get f g_rate) +. (alpha *. inst))
  end;
  let active = ref 0 in
  for k = 0 to g.g_nsend - 1 do
    if n -. Float.Array.unsafe_get g.g_slast k < 0.1 then incr active
  done;
  let cap = t.cfg.mcast_capacity in
  let base = t.cfg.udp_base_loss in
  let rate = Float.Array.unsafe_get f g_rate in
  let thr = cap *. (0.97 -. (0.055 *. log (float_of_int (if !active < 1 then 1 else !active)))) in
  let p =
    if rate <= thr then base
    else
      let p = (rate -. thr) /. (0.25 *. cap) in
      let p = if p > base then p else base in
      if p > 0.30 then 0.30 else p
  in
  Float.Array.unsafe_set f g_loss p

(* Egress-port overrun threshold: 20 ms of booked backlog (truncated to the
   grid; every nic_in booking is tick-aligned so the comparison is exact). *)
let overrun_tk = int_of_float (0.02 *. tick_scale)

(* ------------------------------------------------------------------ *)
(* The message path: each hop arms the record's preallocated          *)
(* continuation at an absolute grid tick with [Engine.at_ticks].      *)
(* ------------------------------------------------------------------ *)

let rec stage_arrival t m =
  let i = m.m_i in
  let dst = i.dstp in
  if not dst.alive then begin
    dst.p_drops <- dst.p_drops + 1;
    finish_msg t m
  end
  else begin
    let at_tk = now_tk t in
    let rx_tk = trans_tk t m.size in
    let rx_done_tk = Resource.acquire_tk dst.p_node.nic_in ~at_tk ~dur_tk:rx_tk in
    let rx_start_tk = Resource.last_start_tk dst.p_node.nic_in in
    (match t.tracer with
    | None -> ()
    | Some tr when Trace.enabled tr ->
        let pid = dst.p_id in
        let arrival = Array.unsafe_get t.cell 0 in
        let rx_start = tf rx_start_tk in
        if rx_start > arrival then
          Trace.span tr ~id:m.tid ~pid ~cat:"queue" ~name:"nic-in-wait" ~ts:arrival
            ~dur:(rx_start -. arrival);
        Trace.span tr ~id:m.tid ~pid ~cat:"wire" ~name:"nic-in" ~ts:rx_start ~dur:(tf rx_tk)
    | Some _ -> ());
    ignore (Sim.Engine.at_ticks t.engine ~tick:rx_done_tk i.k2)
  end

and stage_rxdone t m =
  let i = m.m_i in
  let dst = i.dstp in
  if not dst.alive then begin
    dst.p_drops <- dst.p_drops + 1;
    finish_msg t m
  end
  else if i.udp && dst.rcvbuf_used + m.size > dst.rcvbuf_cap then begin
    dst.p_drops <- dst.p_drops + 1;
    (match t.tracer with
    | Some tr when Trace.enabled tr ->
        Trace.instant tr ~id:m.tid ~pid:dst.p_id ~cat:"proto" ~name:"rcvbuf-drop"
          ~ts:(Array.unsafe_get t.cell 0)
    | _ -> ());
    finish_msg t m
  end
  else begin
    dst.rcvbuf_used <- dst.rcvbuf_used + m.size;
    (* [recover] zeroes the buffer and bumps the epoch; a delivery accepted
       before the crash must not credit the fresh buffer back at its
       (post-recovery) service time. *)
    i.bufep <- dst.rcvbuf_epoch;
    (match t.tracer with
    | Some tr when Trace.enabled tr ->
        Trace.counter tr ~pid:dst.p_id ~name:"rcvbuf" ~ts:(Array.unsafe_get t.cell 0)
          dst.rcvbuf_used
    | _ -> ());
    let c = dst.p_costs in
    let at_tk = now_tk t in
    let cpu_tk =
      let d = (c.recv_per_msg +. (c.recv_per_byte *. float_of_int m.size)) *. dst.p_node.cpu_factor in
      let x = (d *. tick_scale) +. 0.5 in
      if x <= 0.0 then 0 else int_of_float x
    in
    let served_tk = Resource.acquire_tk dst.p_node.cpu ~at_tk ~dur_tk:cpu_tk in
    let cpu_start_tk = Resource.last_start_tk dst.p_node.cpu in
    (match t.tracer with
    | None -> ()
    | Some tr when Trace.enabled tr ->
        let pid = dst.p_id in
        let rx_done = Array.unsafe_get t.cell 0 in
        let cpu_start = tf cpu_start_tk in
        if cpu_start > rx_done then
          Trace.span tr ~id:m.tid ~pid ~cat:"queue" ~name:"recv-cpu-wait" ~ts:rx_done
            ~dur:(cpu_start -. rx_done);
        Trace.span tr ~id:m.tid ~pid ~cat:"cpu" ~name:"recv-cpu" ~ts:cpu_start ~dur:(tf cpu_tk)
    | Some _ -> ());
    ignore (Sim.Engine.at_ticks t.engine ~tick:served_tk i.k3)
  end

and stage_served t m =
  let i = m.m_i in
  let dst = i.dstp in
  if dst.rcvbuf_epoch = i.bufep then dst.rcvbuf_used <- dst.rcvbuf_used - m.size;
  if dst.alive then begin
    Sim.Stats.Rate.add_cell dst.p_recv ~now_cell:t.cell ~bytes:m.size;
    dst.handler m
  end
  else dst.p_drops <- dst.p_drops + 1;
  finish_msg t m

(* Every terminal point of a message's life funnels here: credit the TCP
   window (unless the connection epoch moved), reclaim the record, then
   drain the sender's backlog.  The reclaim happens before the drain so a
   freed slot can carry the very next transmission. *)
and finish_msg t m =
  let i = m.m_i in
  let cn = i.cn in
  let srcp = i.srcp in
  let dstp = i.dstp in
  let size = m.size in
  let credit = i.credit && cn.c_epoch = i.cepoch in
  release_msg t m;
  if credit then begin
    cn.in_flight <- cn.in_flight - size;
    tcp_drain t srcp dstp cn
  end

and release_msg t m =
  let i = m.m_i in
  if not i.live then invalid_arg "Simnet: message reclaimed twice";
  i.live <- false;
  m.payload <- Noop;
  i.srcp <- t.dummy_proc;
  i.dstp <- t.dummy_proc;
  i.cn <- t.dummy_conn;
  i.grp <- t.dummy_group;
  push_free t m

and push_free t m =
  let cap = Array.length t.free in
  if t.n_free = cap then begin
    let nf = Array.make (if cap = 0 then 64 else cap * 2) m in
    Array.blit t.free 0 nf 0 t.n_free;
    t.free <- nf
  end;
  Array.unsafe_set t.free t.n_free m;
  t.n_free <- t.n_free + 1

(* Birth of a pooled record: the hop continuations capture the record once
   and are reused for its whole life across recycles. *)
and birth t =
  let i =
    { live = false;
      udp = false;
      credit = false;
      srcp = t.dummy_proc;
      dstp = t.dummy_proc;
      cn = t.dummy_conn;
      cepoch = 0;
      bufep = 0;
      arr_tk = 0;
      grp = t.dummy_group;
      loop = false;
      k1 = nop;
      k2 = nop;
      k3 = nop;
      kc = nop;
      ks = nop }
  in
  let m = { src = 0; dst = 0; size = 0; payload = Noop; sent_tk = 0; tid = 0; m_i = i } in
  i.k1 <- (fun () -> stage_arrival t m);
  i.k2 <- (fun () -> stage_rxdone t m);
  i.k3 <- (fun () -> stage_served t m);
  i.kc <- (fun () -> finish_msg t m);
  i.ks <- (fun () -> stage_switch t m);
  t.n_all <- t.n_all + 1;
  m

and acquire_msg t =
  if t.n_free = 0 then push_free t (birth t);
  t.n_free <- t.n_free - 1;
  let m = Array.unsafe_get t.free t.n_free in
  m.m_i.live <- true;
  m

(* Fault-tap dispatch for one (message, destination) pair, then scheduling
   of the arrival hop.  A [Drop] still runs the consume hop at the would-be
   arrival time, otherwise the sender's TCP window accounting leaks
   [in_flight] bytes and the connection wedges; a [Duplicate] copy carries
   no window credit so the window is credited exactly once. *)
and transmit t m ~arrival_tk =
  let i = m.m_i in
  match t.fault_tap with
  | None ->
      i.arr_tk <- arrival_tk;
      sched_arrival t m
  | Some tap -> (
      match tap m ~dst:i.dstp with
      | Deliver ->
          i.arr_tk <- arrival_tk;
          sched_arrival t m
      | Drop ->
          i.dstp.p_drops <- i.dstp.p_drops + 1;
          ignore (Sim.Engine.at_ticks t.engine ~tick:arrival_tk i.kc)
      | Delay d ->
          i.arr_tk <- arrival_tk + tk_of_dur (Float.max 0.0 d);
          sched_arrival t m
      | Duplicate d ->
          i.arr_tk <- arrival_tk;
          sched_arrival t m;
          let dup = acquire_msg t in
          let di = dup.m_i in
          dup.src <- m.src;
          dup.dst <- m.dst;
          dup.size <- m.size;
          dup.payload <- m.payload;
          dup.sent_tk <- m.sent_tk;
          dup.tid <- m.tid;
          di.udp <- i.udp;
          di.credit <- false;
          di.srcp <- i.srcp;
          di.dstp <- i.dstp;
          di.cn <- t.dummy_conn;
          di.cepoch <- 0;
          di.arr_tk <- arrival_tk + tk_of_dur (Float.max 0.0 d);
          sched_arrival t dup)

(* The switch hop: run the loss model once for the packet, replicate it to
   the group's members in [g_members] order, then reclaim the hop record. *)
and stage_switch t h =
  let g = h.m_i.grp in
  t.mc_packets <- t.mc_packets + 1;
  mc_update t g h.m_i.srcp h.size;
  fan_out t h g.g_members;
  release_msg t h

and fan_out t h = function
  | [] -> ()
  | dst :: rest ->
      let hi = h.m_i in
      let src = hi.srcp in
      if dst != src || hi.loop then begin
        let tx_done_tk = hi.arr_tk in
        (* An egress port whose queue has run away also sheds the packet
           (switch egress buffering is finite).  The loss draw is
           [Rng.bool rng p_loss], computed here from its int draw so the
           probability crosses no module boundary boxed. *)
        let p_loss = Float.Array.unsafe_get hi.grp.g_f g_loss in
        let port_overrun =
          Resource.backlog_gt dst.p_node.nic_in ~now_tk:tx_done_tk ~limit_tk:overrun_tk
        in
        if
          port_overrun
          || p_loss > 0.0
             && float_of_int (Sim.Rng.bits53 t.rng) /. 9007199254740992.0 (* 2^53 *) < p_loss
        then begin
          dst.p_drops <- dst.p_drops + 1;
          t.mc_drops <- t.mc_drops + 1;
          match t.tracer with
          | Some tr when Trace.enabled tr ->
              Trace.instant tr ~id:h.tid ~pid:dst.p_id ~cat:"proto" ~name:"switch-drop"
                ~ts:(Array.unsafe_get t.cell 0)
          | _ -> ()
        end
        else begin
          let arr_tk = tx_done_tk + prop_tk t src dst in
          trace_prop t ~tid:h.tid src ~tx_done_tk ~arr_tk;
          let m = acquire_msg t in
          let i = m.m_i in
          m.src <- src.p_id;
          m.dst <- -1;
          m.size <- h.size;
          m.payload <- h.payload;
          m.sent_tk <- h.sent_tk;
          m.tid <- h.tid;
          i.udp <- true;
          i.credit <- false;
          i.srcp <- src;
          i.dstp <- dst;
          i.cn <- t.dummy_conn;
          i.cepoch <- 0;
          transmit t m ~arrival_tk:arr_tk
        end
      end;
      fan_out t h rest

and sched_arrival t m =
  ignore (Sim.Engine.at_ticks t.engine ~tick:m.m_i.arr_tk m.m_i.k1)

and tcp_transmit t srcp dstp cn size payload sent_tk tid =
  let tx_done_tk = sender_side_tk t ~tid srcp size in
  let arr_tk = tx_done_tk + prop_tk t srcp dstp in
  trace_prop t ~tid srcp ~tx_done_tk ~arr_tk;
  let m = acquire_msg t in
  let i = m.m_i in
  m.src <- srcp.p_id;
  m.dst <- dstp.p_id;
  m.size <- size;
  m.payload <- payload;
  m.sent_tk <- sent_tk;
  m.tid <- tid;
  i.udp <- false;
  i.credit <- true;
  i.srcp <- srcp;
  i.dstp <- dstp;
  i.cn <- cn;
  i.cepoch <- cn.c_epoch;
  transmit t m ~arrival_tk:arr_tk

and tcp_drain t srcp dstp cn =
  let window = dstp.rcvbuf_cap in
  let continue = ref true in
  while !continue && cn.b_len > 0 do
    let head = cn.b_head in
    let size = Array.unsafe_get cn.b_size head in
    if cn.in_flight + size <= window || cn.in_flight = 0 then begin
      let payload = cn.b_pay.(head) in
      let sent_tk = Array.unsafe_get cn.b_sent head in
      let tid = Array.unsafe_get cn.b_tid head in
      cn.b_pay.(head) <- Noop;
      cn.b_head <- (head + 1) land (Array.length cn.b_size - 1);
      cn.b_len <- cn.b_len - 1;
      cn.in_flight <- cn.in_flight + size;
      tcp_transmit t srcp dstp cn size payload sent_tk tid
    end
    else continue := false
  done

let send ?tid t ~src ~dst ~size payload =
  let tid = match tid with Some x -> x | None -> alloc_tid t in
  let cn = conn_of t src dst in
  let window = dst.rcvbuf_cap in
  if cn.b_len = 0 && (cn.in_flight + size <= window || cn.in_flight = 0) then begin
    cn.in_flight <- cn.in_flight + size;
    tcp_transmit t src dst cn size payload (now_tk t) tid
  end
  else ring_push cn ~size ~payload ~sent_tk:(now_tk t) ~tid

let new_group t name =
  t.ngroups <- t.ngroups + 1;
  make_group t.ngroups name

let join g p = if not (List.memq p g.g_members) then g.g_members <- p :: g.g_members
let leave g p = g.g_members <- List.filter (fun q -> q != p) g.g_members
let members g = g.g_members

let mcast ?(loopback = false) ?tid t ~src g ~size payload =
  if not t.cfg.multicast_available then
    failwith "Simnet.mcast: ip-multicast unavailable in this deployment";
  let tid = match tid with Some x -> x | None -> alloc_tid t in
  let sent_tk = now_tk t in
  let tx_done_tk = sender_side_tk t ~tid src size in
  (* The switch sees the packet when the NIC has finished serialising it, so
     back-to-back bursts are paced at line rate before the loss model runs.
     The switch hop borrows a pooled record and arms its prebuilt [ks]. *)
  let h = acquire_msg t in
  let i = h.m_i in
  h.size <- size;
  h.payload <- payload;
  h.sent_tk <- sent_tk;
  h.tid <- tid;
  i.srcp <- src;
  i.arr_tk <- tx_done_tk;
  i.grp <- g;
  i.loop <- loopback;
  ignore (Sim.Engine.at_ticks t.engine ~tick:tx_done_tk i.ks)

(* {1 Message-pool public API} *)

let pool_allocated t = t.n_all
let pool_free t = t.n_free

(* {1 Timers} *)

let after t delay f = Sim.Engine.schedule t.engine ~delay f

let after_tk t ~ticks f = Sim.Engine.schedule_ticks t.engine ~ticks f

let cancel t h = Sim.Engine.cancel t.engine h

let every t ~period f =
  let stopped = ref false in
  let rec tick () =
    if not !stopped then begin
      f ();
      ignore (Sim.Engine.schedule t.engine ~delay:period tick)
    end
  in
  ignore (Sim.Engine.schedule t.engine ~delay:period tick);
  fun () -> stopped := true

(* Tick-period variant: the recurring closure is allocated once and each
   re-arm passes an integer, so periodic protocol timers (heartbeats,
   batch flushes) run allocation-free. *)
let every_tk t ~ticks f =
  let stopped = ref false in
  let rec tick () =
    if not !stopped then begin
      f ();
      ignore (Sim.Engine.schedule_ticks t.engine ~ticks tick)
    end
  in
  ignore (Sim.Engine.schedule_ticks t.engine ~ticks tick);
  fun () -> stopped := true

let charge_cpu t p dur =
  if dur > 0.0 then
    ignore (Resource.acquire p.p_node.cpu ~at:(now t) ~dur:(dur *. p.p_node.cpu_factor))

let exec t p ~dur k =
  let at = now t in
  let dur = dur *. p.p_node.cpu_factor in
  let start, finish = Resource.acquire p.p_node.cpu ~at ~dur in
  (match t.tracer with
  | None -> ()
  | Some tr when Trace.enabled tr ->
      if start > at then
        Trace.span tr ~pid:p.p_id ~cat:"queue" ~name:"exec-wait" ~ts:at ~dur:(start -. at);
      Trace.span tr ~pid:p.p_id ~cat:"exec" ~name:"exec" ~ts:start ~dur
  | Some _ -> ());
  ignore (Sim.Engine.at t.engine ~time:finish (fun () -> if p.alive then k ()))

let kill t p =
  p.alive <- false;
  Hashtbl.iter
    (fun key conn ->
      let src = key lsr 20 and dst = key land 0xFFFFF in
      (* Connection state to a crashed process is reset so a later recovery
         starts from a clean window; the epoch bump stops in-flight window
         credits from the old incarnation reaching the fresh counter. *)
      if dst = p.p_id then begin
        conn.in_flight <- 0;
        clear_backlog conn;
        conn.c_epoch <- conn.c_epoch + 1
      end
      (* The crashed process's own un-transmitted sends are volatile state:
         they must not resurrect and transmit after recovery (bytes already
         accepted in flight stay accounted — they are on the wire, and
         their deliveries drain [in_flight] normally). *)
      else if src = p.p_id then clear_backlog conn)
    t.conns

let recover _t p =
  p.alive <- true;
  p.rcvbuf_used <- 0;
  (* Deliveries accepted before the crash still hold credits against the
     old buffer; the epoch bump voids them (see [stage_served]). *)
  p.rcvbuf_epoch <- p.rcvbuf_epoch + 1
