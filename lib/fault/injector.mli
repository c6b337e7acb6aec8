(** Deterministic, seeded fault injection over {!Simnet}.

    An injector owns the network's fault tap and two private random
    streams split from its seed: one rolls the per-message dice, the
    other is handed to scenario code to draw the fault schedule
    ({!sched_rng}).  Equal seeds therefore replay the exact same fault
    timeline, message for message, which is what makes a chaos failure
    reproducible from its seed alone.

    Faults compose in a fixed precedence: a severed link ({!partition})
    always drops; otherwise the first active matching rule rolls drop,
    then duplicate, then jitter.  Crash/recover of protocol processes
    stays protocol-specific — schedule it with {!at}, which logs its
    label, so every fault appears in the event log. *)

type t

(** [create ?heal_by net ~seed] installs the tap on [net].  Every heal,
    rule stop and CPU restore, and every action scheduled with
    {!heal_at}, happens by [heal_by] at the latest (default: never
    clamped). *)
val create : ?heal_by:float -> Simnet.t -> seed:int -> t

(** The schedule stream: scenario code draws fault times, victims and
    probabilities from it (never from the network's own rng). *)
val sched_rng : t -> Sim.Rng.t

(** [at t time label f] appends [label] to the event log and runs [f]
    at absolute simulation time [time]. *)
val at : t -> float -> string -> (unit -> unit) -> unit

(** [heal_at t time label f] is [at t time label f] with [time] clamped
    to the heal horizon: for actions that end a fault, such as restarting
    a crashed process. *)
val heal_at : t -> float -> string -> (unit -> unit) -> unit

(** Timestamped fault events in chronological order. *)
val events : t -> (float * string) list

(** Messages dropped because of a cut link or a drop rule. *)
val drops : t -> int

(** {1 Partitions} *)

(** [partition t ~at ~dur ~group_a ~group_b label] cuts every link
    between [group_a] and [group_b] (pids, both directions) at [at] and
    heals them [dur] later.  Cuts are reference counted, so overlapping
    partitions compose. *)
val partition :
  t ->
  at:float ->
  dur:float ->
  group_a:int list ->
  group_b:int list ->
  string ->
  unit

(** {1 Probabilistic link chaos} *)

(** [rule t ~at ~dur ?drop ?dup ?jitter ~applies label] activates, for
    [dur] seconds starting at [at], a rule that for each matching
    (message, destination): drops with probability [drop], else
    duplicates with probability [dup] (the copy lags by a uniform draw
    in [0, jitter]), else delays by a uniform draw in [0, jitter].
    Multicast deliveries are matched with [msg.dst = -1]. *)
val rule :
  t ->
  at:float ->
  dur:float ->
  ?drop:float ->
  ?dup:float ->
  ?jitter:float ->
  applies:(Simnet.msg -> dst:Simnet.proc -> bool) ->
  string ->
  unit

(** [custom t ~at ~dur ~decide label] activates an arbitrary verdict
    function for the window — e.g. a per-link constant delay, which
    (unlike [rule]'s per-message jitter) preserves TCP FIFO order. *)
val custom :
  t ->
  at:float ->
  dur:float ->
  decide:(Simnet.msg -> dst:Simnet.proc -> Simnet.fault) ->
  string ->
  unit

(** {1 Slow-CPU episodes} *)

(** [slow_cpu t ~at ~dur ~factor node] multiplies the node's CPU cost
    factor by [factor] for [dur] seconds, then restores it. *)
val slow_cpu : t -> at:float -> dur:float -> factor:float -> Simnet.node -> unit
