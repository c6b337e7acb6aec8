(** Basic (optimized) Paxos — Algorithm 1 of the dissertation.

    The deployment runs one active coordinator (plus optional standbys for
    the failure experiments of Chapter 7), [n] acceptors, and any number of
    proposers and learners.  Phase 1 is pre-executed for all instances
    (§3.2's optimization), values are optionally batched into fixed-size
    packets, and at most [window] consensus instances run concurrently.

    Two dissemination modes reproduce two of the paper's comparators:
    - [`Mcast]: Phase 2A ip-multicast to acceptors and learners, decisions
      multicast as value ids — the Libpaxos baseline;
    - [`Ucast]: everything over unicast — the PFSB baseline
      (Paxos for system builders). *)

type t

type config = {
  dissemination : [ `Mcast | `Ucast ];
  window : int;  (** outstanding consensus instances *)
  batch_bytes : int;  (** 0 disables batching *)
  batch_timeout : float;  (** seal a partial batch after this delay *)
  extra_cpu_per_instance : float;
      (** implementation-inefficiency calibration (marshaling, GC, ...) *)
  hb_period : float;
  hb_timeout : float;  (** coordinator failure-detection timeout *)
  repair_timeout : float;  (** learner gap-repair request delay *)
  resubmit_timeout : float;  (** proposer retry for unacknowledged items *)
}

val default_config : config

(** [create net config ~n_acceptors ~n_standby_coordinators ~n_proposers
    ~n_learners ~deliver] builds a deployment on fresh nodes; [deliver] fires
    for every learner, in instance order per learner. *)
val create :
  Simnet.t ->
  config ->
  n_acceptors:int ->
  n_standby:int ->
  n_proposers:int ->
  n_learners:int ->
  deliver:(learner:int -> inst:int -> Value.t -> unit) ->
  t

(** [submit t ~proposer ~size app] injects an application message through
    proposer number [proposer]; returns the item uid, or [-1] when the
    proposer's client buffer is full. *)
val submit : t -> proposer:int -> size:int -> Simnet.payload -> int

(** Process handles, for failure injection and measurement. *)

val coordinator : t -> Simnet.proc
val acceptor : t -> int -> Simnet.proc

(** [kill_coordinator t] crashes the active coordinator; a standby takes
    over after the failure-detection timeout. *)
val kill_coordinator : t -> unit

val kill_acceptor : t -> int -> unit

(** Number of instances decided at the (active) coordinator. *)
val decided : t -> int
