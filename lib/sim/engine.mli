(** Discrete-event simulation engine.

    Time is a [float] in seconds.  Events scheduled for the same instant run
    in scheduling order (a monotonically increasing sequence number breaks
    ties), which keeps runs deterministic.

    The queue is the hierarchical {!Wheel}: pooled event records, zero
    allocation on the steady-state schedule/fire path. *)

type t

(** Cancellation handle for a scheduled event: a generation-stamped
    immediate integer, so scheduling allocates nothing. *)
type handle

(** [create ()] is a fresh engine with the clock at [0.0]. *)
val create : unit -> t

(** [now t] is the current simulation time in seconds. *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at [now t +. delay].
    Negative delays are clamped to zero. *)
val schedule : t -> delay:float -> (unit -> unit) -> handle

(** Virtual-time resolution of {!schedule_ticks}: 2^20 ticks per second
    (~0.95 us). *)
val ticks_per_second : int

(** [schedule_ticks t ~ticks f] runs [f] at [now t] plus [ticks] engine
    ticks (clamped to zero).  Taking the delay as an integer keeps the
    whole scheduling path free of float boxing, so hot callers can arm
    timers with zero allocation. *)
val schedule_ticks : t -> ticks:int -> (unit -> unit) -> handle

(** [at_ticks t ~tick f] runs [f] at absolute engine tick [tick]
    ([tick /. ticks_per_second] seconds, clamped to [now t] when past).
    Zero-allocation like {!schedule_ticks}, but the event lands exactly
    on the tick grid even when the clock currently sits off-grid — the
    simnet hot path schedules every hop this way. *)
val at_ticks : t -> tick:int -> (unit -> unit) -> handle

(** [ticks_of_duration d] is [d] seconds in engine ticks, rounded to
    nearest (error at most half a tick, ~0.48 us); never negative. *)
val ticks_of_duration : float -> int

(** [ticks_of_time ts] is the tick whose window contains absolute time
    [ts] (truncating); grid-aligned times round-trip exactly. *)
val ticks_of_time : float -> int

(** [time_of_ticks tk] is the absolute time of tick [tk], in seconds. *)
val time_of_ticks : int -> float

(** [now_cell t] is the engine clock as a 1-element float array — the
    cell the firing loop writes — so hot paths can read the time without
    the boxed float {!now} returns.  Read-only for callers. *)
val now_cell : t -> float array

(** [at t ~time f] runs [f] at absolute [time] (clamped to [now t]). *)
val at : t -> time:float -> (unit -> unit) -> handle

(** [cancel t h] prevents the event from firing; idempotent, and a no-op
    once the event has fired.  The event is uncounted from {!pending}
    immediately; its queue slot is reclaimed lazily. *)
val cancel : t -> handle -> unit

(** [run t ~until] processes events with [time <= until] until the queue
    drains or the next event lies beyond [until]; the clock is left at
    [max until last_event_time].  Raises [Failure] if more than
    [max_events] events fire (runaway guard, default 200 million):
    exactly [max_events] may fire, and cancelled events drain for free. *)
val run : ?max_events:int -> t -> until:float -> unit

(** [run_all t] processes events until the queue is empty. *)
val run_all : ?max_events:int -> t -> unit

(** [pending t] is the number of scheduled (uncancelled) events. *)
val pending : t -> int
