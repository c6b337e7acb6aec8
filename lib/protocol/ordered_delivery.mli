(** Per-learner instance-ordered delivery with gap tracking.

    Decisions (or any per-instance payload) arrive out of order; the pump
    releases them strictly in instance order starting from instance 0.
    [max_seen] tracks the highest instance known to exist, so [backlog] and
    [missing] expose the gaps a learner must repair before it can advance
    (M-Ring's retransmission protocol, §3.3.4), and [speculate] gates
    at-most-once speculative delivery of not-yet-ordered values
    (Chapter 4). *)

type 'v t

val create : unit -> 'v t

(** The next instance to deliver. *)
val next : 'v t -> int

(** Highest instance known to exist; [-1] before any [offer]/[note_max]. *)
val max_seen : 'v t -> int

(** Raise [max_seen] (e.g. from a decision addressed to another learner). *)
val note_max : 'v t -> int -> unit

(** [offer t ~inst v] stores the payload for [inst]; [false] when [inst]
    was already delivered or already stored.  Raises [max_seen]. *)
val offer : 'v t -> inst:int -> 'v -> bool

val has : 'v t -> int -> bool
val find : 'v t -> int -> 'v option

(** Number of stored, undelivered instances. *)
val size : 'v t -> int

(** [pump t f] repeatedly calls [f inst v] on the next instance while its
    payload is present; [true] consumes it and advances, [false] stops the
    pump (e.g. the value for a decided id has not arrived yet). *)
val pump : 'v t -> (int -> 'v -> bool) -> unit

(** Instances known to exist but not yet delivered: [max_seen + 1 - next],
    clamped at 0. *)
val backlog : 'v t -> int

(** [missing t ~complete ()] lists up to [limit] instances in
    [next, next + window) that are absent or for which [complete inst v]
    is [false] (decision known but value still missing). *)
val missing : 'v t -> ?window:int -> ?limit:int -> complete:(int -> 'v -> bool) -> unit -> int list

(** [speculate t ~inst f] runs [f] at most once per undelivered instance;
    the mark is cleared when the instance is delivered. *)
val speculate : 'v t -> inst:int -> (unit -> unit) -> unit

(** Forget stored payloads below [floor] (garbage collection). *)
val drop_below : 'v t -> int -> unit

(** [fast_forward t inst] jumps the delivery cursor to [inst], dropping
    any stored payloads below it, without delivering the skipped prefix.
    No-op unless [inst > next].  Used when a membership change admits a
    learner at an epoch's activation instance, and when a joining
    acceptor's catch-up starts at the garbage-collection floor. *)
val fast_forward : 'v t -> int -> unit

(** {1 Gap repair}

    Single-outstanding repair scheduling with a cooldown: while a backlog
    exists, wait [timeout], recompute the missing instances and pass them
    to [send] (a targeted retransmission request), then wait [cooldown]
    before asking again (§3.3.4). *)

type repair

val repairer : unit -> repair

(** A repair request is scheduled or cooling down. *)
val repairing : repair -> bool

(** [request_repairs r t net ~timeout ~cooldown ~alive ~complete ~send]
    starts (or no-ops into) the repair cycle.  The cycle re-arms while a
    backlog persists — a transiently-false [alive ()] or an empty missing
    window does not end it — and stops only once the backlog has drained.
    Caller contract: invoke again whenever a new gap opens after the
    backlog reached zero (e.g. from the decision handler); re-invoking
    while a cycle is active is a no-op. *)
val request_repairs :
  repair ->
  'v t ->
  Simnet.t ->
  timeout:float ->
  cooldown:float ->
  alive:(unit -> bool) ->
  complete:(int -> 'v -> bool) ->
  send:(int list -> unit) ->
  unit

(** {1 Delivery processing queue}

    In-order payloads released by the pump that still need per-item
    processing time on the learner's CPU before the application sees
    them (flow-control experiments use this to create slow learners). *)

type ('a, 'b) sink

val sink : unit -> ('a, 'b) sink
val sink_push : ('a, 'b) sink -> 'a -> 'b -> unit
val sink_length : ('a, 'b) sink -> int

(** [drain_sink s net proc ~cost deliver] processes queued entries in
    order, charging [cost ()] seconds of CPU on [proc] per entry
    (zero cost delivers synchronously). *)
val drain_sink :
  ('a, 'b) sink -> Simnet.t -> Simnet.proc -> cost:(unit -> float) -> ('a -> 'b -> unit) -> unit

(** [sink_offer s net proc ~cost deliver a b] is [sink_push s a b]
    followed by [drain_sink]; an entry that reaches an idle, empty sink
    is processed without being queued. *)
val sink_offer :
  ('a, 'b) sink ->
  Simnet.t ->
  Simnet.proc ->
  cost:(unit -> float) ->
  ('a -> 'b -> unit) ->
  'a ->
  'b ->
  unit
