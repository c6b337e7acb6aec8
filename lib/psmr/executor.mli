(** Dependency-aware parallel executor with optimistic conflict detection.

    Commands declare read/write key-sets ({!Btree.Keyset}) over the
    replicated btree service; a dependency tracker dispatches each command
    to one of N simulated worker threads as soon as its conflicting
    predecessors finish ([Pessimistic], after arXiv 1311.6183), or
    speculatively with read-write conflict detection and rollback at
    commit ([Optimistic], after arXiv 1404.6721).

    Submissions must arrive in log (decided) order with monotone [now];
    state is applied to the service in that order, so replicas running the
    same stream stay identical and the final state always equals the
    sequential reference.  Commits are in log order too.  Per-stage spans
    (queue / dispatch / execute / rollback / commit) feed the {!Trace}
    latency decomposition when a tracer is installed. *)

type mode = Pessimistic | Optimistic

type report = {
  r_ready : float;  (** dependencies settled (pessimistic) / submit time *)
  r_start : float;  (** first (speculative) execution start *)
  r_fin : float;  (** final execution finish, after any re-executions *)
  r_commit : float;  (** in-order commit time *)
  r_rollbacks : int;  (** re-executions this command needed *)
}

type t

(** [create ~mode ~n_workers service] — [tracer]/[pid] route the stage
    spans into a latency decomposition. *)
val create :
  ?tracer:Trace.t -> ?pid:int -> mode:mode -> n_workers:int -> Smr.Service.t -> t

(** [submit t ~now ~uid ~reads ~writes op] schedules, executes and commits
    one decided command.  [now] must be monotone across calls (an earlier
    value is clamped to the latest seen).  The command's timeline is read
    back with {!last_commit}, {!last_rollbacks} or {!last_report}: returning
    it would allocate a record per command. *)
val submit :
  t ->
  now:float ->
  uid:int ->
  reads:Btree.Keyset.t ->
  writes:Btree.Keyset.t ->
  Simnet.payload ->
  unit

(** [read t ~now ~reads ~cost] runs a read-only command that has no log
    position (a lease-served read): it waits for the in-flight commands
    whose writes overlap [reads], then occupies the first free worker for
    [cost] seconds.  It joins the dependency tracker, so a later
    conflicting write waits for it (in [Pessimistic] mode), but it does
    not commit: {!last_commit}, {!last_report}, {!last_rollbacks} and
    {!executed} still describe the latest submitted command.  Its start and
    finish are read back with {!last_read_start} and {!last_read_fin}.
    [now] is clamped like {!submit}'s.  No stage spans are emitted; the
    caller traces the read. *)
val read : t -> now:float -> reads:Btree.Keyset.t -> cost:float -> unit

(** Worker start of the latest {!read} (0 before the first). *)
val last_read_start : t -> float

(** Finish of the latest {!read} (0 before the first). *)
val last_read_fin : t -> float

(** The timeline of the latest submitted command (all zeros before the
    first submission). *)
val last_report : t -> report

(** Re-executions the latest submitted command needed. *)
val last_rollbacks : t -> int

val executed : t -> int

(** Commands that were rolled back and re-executed (counted once per
    re-execution). *)
val rollbacks : t -> int

(** Read-write conflicts detected at commit. *)
val conflicts : t -> int

(** Commit time of the latest committed command (commits are in log order,
    so this is also the latest submitted command's commit time). *)
val last_commit : t -> float

val n_workers : t -> int

(** Commands the dependency tracker still holds as potentially in flight. *)
val inflight : t -> int

(** Mean worker utilisation over a window, percent. *)
val utilization : t -> from:float -> till:float -> float
