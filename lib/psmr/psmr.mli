(** Parallel State-Machine Replication — Chapter 6.

    Four execution models over the same client interface (Fig. 6.1):

    - [Sequential]: classic SMR; ordering and execution share the replica's
      single thread.
    - [Pipelined]: multithreaded replica stages, still sequential
      execution on a dedicated executor thread.
    - [Sdpe] (sequential delivery, parallel execution — CBASE-like): one
      totally ordered stream; a scheduler thread dispatches commands to
      worker threads, tracking conflicts; the scheduler's per-command cost
      eventually bottlenecks.
    - [Psmr]: Parallel SMR proper (§6.3): one Multi-Ring Paxos group per
      worker plus a group subscribed by all workers; client proxies map
      independent commands to a single worker's group and dependent
      commands to the all-workers group, where execution synchronises on a
      barrier — no replica-side scheduler at all.

    Commands name an abstract object; two commands conflict when they
    touch the same object and at least one writes ([dependent] marks
    commands that conflict with everything).

    The dependency-aware and optimistic executors of the follow-on work
    ({!Executor}, after arXiv 1311.6183 and 1404.6721) run behind the
    replicated key-value service: [Kv] deploys one per replica, its mode
    chosen by [Kv.config.executor]. *)

(** The dependency-aware parallel executor itself, usable standalone. *)
module Executor = Executor

type approach = Sequential | Pipelined | Sdpe | Psmr

type command = {
  obj : int;  (** object the command accesses *)
  dependent : bool;  (** conflicts with every other command *)
  size : int;
}

type config = {
  approach : approach;
  n_workers : int;  (** worker threads per replica *)
  n_replicas : int;
  ring : Ringpaxos.Mring.config;
  exec_cost : float;  (** service time per command, seconds *)
  sched_cost : float;  (** SDPE scheduler cost per command, seconds *)
}

val default_config : config

type t

(** [create net cfg ~n_clients ~gen] builds the system; [gen c] is client
    [c]'s next command. *)
val create :
  Simnet.t -> config -> n_clients:int -> gen:(int -> command) -> t

(** Start the closed-loop clients (each resubmits on response). *)
val start : t -> unit

val metrics : t -> Smr.Metrics.t

(** Barriers executed (dependent commands), summed across replicas. *)
val barriers : t -> int

(** Commands executed, summed across replicas and workers. *)
val executed : t -> int

(** Mean worker-thread utilisation across replicas over a window,
    percent. *)
val worker_utilization : t -> from:float -> till:float -> float

(** Per-replica variants of the aggregated counters above. *)

val barriers_at : t -> int -> int
val executed_at : t -> int -> int
val worker_utilization_at : t -> int -> from:float -> till:float -> float

(** The qualitative comparison of Table 6.1. *)
val table_6_1 : (string * string * string * string) list

val render_table_6_1 : unit -> string

(** White-box hooks for the barrier regression tests: construct worker
    queue states directly (bypassing delivery) and drive the pump/join
    logic on them.  Not for production use. *)
module Testing : sig
  (** Enqueue a synthetic item on one worker's queue without pumping.
      [group = n_workers] marks a dependent (all-workers) entry. *)
  val enqueue : t -> replica:int -> worker:int -> group:int -> uid:int -> unit

  (** Run the worker's pump loop (what delivery does after enqueueing). *)
  val pump : t -> replica:int -> worker:int -> unit

  (** Force a worker to join [uid]'s barrier regardless of its queue head,
      modelling a join that raced an interleaved independent delivery. *)
  val join : t -> replica:int -> worker:int -> uid:int -> unit

  val queue_length : t -> replica:int -> worker:int -> int

  (** The response-routing decode used internally: the client index a
      response for [uid] is sent to, and the replica that sends it.  The
      former must survive client indexes past 255 (the old 8-bit uid
      origin field wrapped). *)
  val responder_client : t -> uid:int -> int

  val responder_replica : t -> uid:int -> int
end
