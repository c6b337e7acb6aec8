(** Simulated local-area network: nodes, processes, links and a switch.

    The model reproduces the mechanisms the dissertation's evaluation relies
    on: link serialisation at gigabit speed, per-process CPU cost of sending
    and receiving, finite socket buffers (multicast overflow drops), TCP-like
    reliable unicast with a receive-window backpressure, switch-level
    ip-multicast whose loss rate grows with the aggregate rate and with the
    number of concurrent senders (Fig. 3.3), process crashes and recoveries,
    and heterogeneous machines (Ch. 7).

    Protocols attach payloads by extending {!payload} and pattern-matching
    in their handlers; the network treats payloads as opaque and sizes are
    declared explicitly by the sender.

    {2 Message lifetime}

    Message records are pooled: the record passed
    to a handler is {e borrowed} — it is valid until the handler returns,
    after which the network reclaims and reuses it.  A protocol that needs
    a field beyond the handler copies it out.  Payloads are NOT pooled:
    the payload value a handler extracts stays valid forever. *)

(** Extensible message payload; each protocol adds its own constructors. *)
type payload = ..

type payload += Noop

type node
type proc
type group
type conn
type t

(** Simnet-internal pooling and routing state carried by each message. *)
type minternal

type msg = private {
  mutable src : int;  (** sender pid *)
  mutable dst : int;  (** receiver pid, [-1] when delivered via multicast *)
  mutable size : int;  (** application payload bytes *)
  mutable payload : payload;
  mutable sent_tk : int;
      (** simulation time of the send call, in engine ticks
          (2^20 ticks/second); {!sent_at} converts to seconds *)
  mutable tid : int;
      (** causal trace id: allocated per send (deterministic counter)
          unless the sender threads one through, so a command can be
          followed across protocol hops in a {!Trace.t} export *)
  m_i : minternal;  (** internal; opaque to protocols *)
}

(** [sent_at m] is the send time in seconds (quantized to the tick grid). *)
val sent_at : msg -> float

(** Per-process CPU cost model (seconds); all fields mutable so experiments
    can calibrate individual roles. *)
type costs = {
  mutable recv_per_msg : float;
  mutable recv_per_byte : float;
  mutable send_per_msg : float;
  mutable send_per_byte : float;
}

type config = {
  latency : float;  (** one-way propagation delay, seconds *)
  latency_jitter : float;  (** uniform fraction of [latency] added per msg *)
  bandwidth : float;  (** bits per second per NIC direction *)
  multicast_available : bool;
  mcast_capacity : float;  (** aggregate switch multicast capacity, bit/s *)
  udp_base_loss : float;  (** floor loss probability of an ip-multicast packet *)
}
(** The rest is fixed: a 1500-byte MTU with 52 header bytes per frame on
    the wire, a 16 MB receive buffer per process, and the per-process
    cost model of {!costs_of} (4 µs + 1.8 ns/byte to receive, 4.5 µs +
    4.5 ns/byte to send) until a caller edits it. *)

val default_config : config

val create : ?config:config -> Sim.Engine.t -> Sim.Rng.t -> t

val engine : t -> Sim.Engine.t
val config : t -> config
val now : t -> float

(** [now_tk t] is the current time in engine ticks (truncating, like
    {!Sim.Engine.ticks_of_time}).  Int result: reading the clock on a hot
    path allocates nothing. *)
val now_tk : t -> int

(** {1 Topology} *)

(** [add_node t name] creates a machine. [cpu_factor] scales every CPU cost
    on this machine (>1 = slower, used for heterogeneous cloud instances);
    [lat_factor] scales propagation latency of its links. *)
val add_node : ?cpu_factor:float -> ?lat_factor:float -> t -> string -> node

val add_proc : t -> node -> string -> proc

val pid : proc -> int
val proc_name : proc -> string
val proc_node : proc -> node
val node_name : node -> string

(** [proc_of t pid] looks a process up by id. *)
val proc_of : t -> int -> proc

val set_handler : proc -> (msg -> unit) -> unit

(** [handler_of p] returns the current handler, so a layer can wrap the one
    a protocol installed (e.g. client logic on top of a proposer). *)
val handler_of : proc -> msg -> unit

(** {1 Communication} *)

(** Reliable, ordered unicast (TCP-like).  Never drops; when the receiver's
    window ([rcvbuf]) is full of un-consumed bytes the sender queues and the
    transfer resumes as the receiver's handler drains messages.  [tid]
    threads an existing causal id through (a fresh one is allocated
    otherwise). *)
val send : ?tid:int -> t -> src:proc -> dst:proc -> size:int -> payload -> unit

val new_group : t -> string -> group
val join : group -> proc -> unit
val leave : group -> proc -> unit
val members : group -> proc list

(** [mcast t ~src g ~size p] ip-multicasts to every member of [g] except
    [src] (set [loopback:true] to include the sender).  The switch hop
    fires when the sender's NIC has finished serialising the packet: the
    group's loss model runs once for the packet, then the fan-out visits
    the members in {!members} order (most recent {!join} first), drawing
    each destination's loss and jitter in that order.  A steady multicast
    allocates nothing: the switch hop borrows a pooled message record
    until the fan-out is done.  Unavailable multicast
    ([multicast_available = false]) raises [Failure]. *)
val mcast :
  ?loopback:bool -> ?tid:int -> t -> src:proc -> group -> size:int -> payload -> unit

(** {1 Message pool} *)

(** Records ever created by the pool (high-water mark of concurrently
    live messages and multicast switch hops, since records recycle). *)
val pool_allocated : t -> int

(** Records currently sitting in the freelist. *)
val pool_free : t -> int

(** {1 Timers} *)

val after : t -> float -> (unit -> unit) -> Sim.Engine.handle

(** [after_tk t ~ticks f] runs [f] in [ticks] engine ticks
    ({!Sim.Engine.ticks_per_second} = 2^20/s).  Integer delay: arming a
    timeout allocates nothing. *)
val after_tk : t -> ticks:int -> (unit -> unit) -> Sim.Engine.handle

(** [cancel t h] revokes a timer returned by {!after}.  Idempotent and
    safe after the timer has fired (handles are generation-stamped, so a
    stale handle never cancels a newer timer). *)
val cancel : t -> Sim.Engine.handle -> unit

(** [every t ~period f] runs [f] every [period] seconds until the returned
    thunk is called. *)
val every : t -> period:float -> (unit -> unit) -> unit -> unit

(** [every_tk t ~ticks f] is {!every} on the tick grid; each re-arm reuses
    one closure, so periodic timers run allocation-free. *)
val every_tk : t -> ticks:int -> (unit -> unit) -> unit -> unit

(** [charge_cpu t p dur] books [dur] seconds of CPU work on the process's
    machine without a completion callback (protocol calibration knob). *)
val charge_cpu : t -> proc -> float -> unit

(** [exec t p ~dur k] books [dur] seconds of CPU work and runs [k] when the
    work completes (service execution in the SMR layers). *)
val exec : t -> proc -> dur:float -> (unit -> unit) -> unit

(** {1 Failures} *)

(** [kill t p] crashes the process: queued and future messages to it are
    discarded, its timers must be guarded by {!is_alive} by the protocol. *)
val kill : t -> proc -> unit

val recover : t -> proc -> unit
val is_alive : proc -> bool

(** {1 Fault injection}

    A fault tap rules on every (message, destination) pair before the
    receiver side of the link model runs — unicast and multicast
    alike (multicast deliveries carry [dst = -1] in the message but the
    tap still receives the concrete destination process).  Sender-side
    costs have already been charged when the tap runs, so a dropped
    message consumed NIC and CPU at the sender exactly like a real one. *)

type fault =
  | Deliver  (** let the message through untouched *)
  | Drop  (** lose it (TCP window accounting stays correct) *)
  | Delay of float  (** add this many seconds to the arrival time *)
  | Duplicate of float  (** deliver now and once more after this delay *)

(** [set_fault_tap t (Some f)] installs the tap; [None] removes it. *)
val set_fault_tap : t -> (msg -> dst:proc -> fault) option -> unit

(** [set_cpu_factor n f] rescales every CPU cost on the machine from now
    on (slow-CPU fault episodes); in-progress work is unaffected. *)
val set_cpu_factor : node -> float -> unit

val node_cpu_factor : node -> float

(** {1 Tuning} *)

val set_rcvbuf : proc -> int -> unit
val rcvbuf : proc -> int

(** Bytes of multicast deliveries held in the receive buffer (accepted, not yet
    served); invariant [0 <= rcvbuf_used p] across kill/recover. *)
val rcvbuf_used : proc -> int

val costs_of : proc -> costs

(** [set_mem p bytes] lets a protocol report its resident buffer footprint
    (Tables 3.3/3.4). *)
val set_mem : proc -> int -> unit

val mem : proc -> int

(** {1 Measurement} *)

(** Application bytes delivered to the process handler. *)
val recv_rate : proc -> Sim.Stats.Rate.t

(** Application bytes handed to the network by the process. *)
val sent_rate : proc -> Sim.Stats.Rate.t

(** Messages dropped on their way to this process (loss + overflow). *)
val drops : proc -> int

(** Lost multicast packets counted at the switch (for Fig. 3.3). *)
val switch_drops : t -> int

val mcast_packets : t -> int

(** CPU accounting of the machine a process runs on. *)
val cpu_busy : node -> Sim.Stats.Busy.t

(** [wire_size size] is the on-the-wire size including framing. *)
val wire_size : int -> int

(** {1 Tracing}

    With a tracer installed the network records spans for every resource
    acquisition (queueing and service split), wire propagation, socket
    buffer levels and drop instants.  Recording never schedules events or
    consumes randomness: a run is bit-identical with tracing on or off. *)

(** [set_tracer t (Some tr)] installs a tracer (opening a fresh pid
    namespace in it and registering existing processes); [None] removes
    it. *)
val set_tracer : t -> Trace.t option -> unit

val tracer : t -> Trace.t option
