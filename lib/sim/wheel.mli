(** Hierarchical timing wheel: the pending-event queue of {!Engine}.

    Four wheels of 256 slots each, keyed on integer ticks of virtual time
    (2^20 ticks per second, ~0.95 us resolution), with a binary heap of
    pooled record indices as the far-future overflow level and a second
    index heap (the "firing heap") holding the events of the tick window
    currently being drained.  Event records live in a struct-of-arrays
    pool and are recycled across fire/cancel cycles, so the steady-state
    [add_ticks]/[cancel]/[run] path allocates nothing: no event boxes, no
    handle records, no closure re-wrapping.

    Determinism contract (same as the engine's): events fire in
    [(time, order)] order, so same-instant events fire in scheduling
    order.  Within a tick the firing heap orders by the exact [float]
    time, which keeps the schedule identical to a plain sorted queue on
    [(time, order)] over the same events.

    Cancelled events are purged lazily: [cancel] only marks the record,
    and a sweep reclaims marked records once they are at least half of
    the queue (and at least 64), bounding the memory of long-horizon
    runs that re-arm timers forever. *)

type t

(** Raised by {!run} when more than [max_events] events would fire. *)
exception Budget

val create : unit -> t

(** Virtual-time resolution: ticks per simulated second (2^20). *)
val ticks_per_second : int

(** [add t ~time ~order f] queues [f] at absolute [time]; [order] breaks
    same-time ties (callers pass a monotonically increasing sequence
    number).  Returns a generation-stamped integer handle for {!cancel}.
    Times are clamped into the far-future overflow level when they exceed
    the wheel horizon (~2^61 ticks), including [infinity]. *)
val add : t -> time:float -> order:int -> (unit -> unit) -> int

(** [add_ticks t ~now ~ticks ~order f] queues [f] at
    [now.(0) +. ticks / ticks_per_second].  Taking the delay as an
    integer and the clock as a float cell keeps every float unboxed, so
    this entry point allocates nothing at all. *)
val add_ticks : t -> now:float array -> ticks:int -> order:int -> (unit -> unit) -> int

(** [add_abs t ~now ~tick ~order f] queues [f] at absolute engine tick
    [tick] (i.e. [tick /. ticks_per_second] seconds), clamped to the
    clock when the tick is already past.  Like {!add_ticks} every float
    stays unboxed, so scheduling allocates nothing; unlike it the event
    lands exactly on the tick grid regardless of where the clock
    currently sits. *)
val add_abs : t -> now:float array -> tick:int -> order:int -> (unit -> unit) -> int

(** [cancel t h] prevents the event from firing.  Returns [true] when the
    handle named a live pending event (stale and duplicate handles are
    rejected by the generation stamp).  May trigger a lazy purge. *)
val cancel : t -> int -> bool

(** Number of pending, uncancelled events. *)
val live : t -> int

(** Queue occupancy including cancelled-but-unpurged records (tests). *)
val queued : t -> int

(** [run t ~now ~until ~max_events] fires events with [time <= until] in
    [(time, order)] order, writing each event's time into [now.(0)]
    before its action runs, and returns the number fired.  Cancelled
    records encountered on the way are recycled without counting against
    [max_events].  @raise Budget when a fireable event remains after
    [max_events] have fired. *)
val run : t -> now:float array -> until:float -> max_events:int -> int
