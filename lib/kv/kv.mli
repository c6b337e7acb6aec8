(** A replicated key-value service over the full stack — client proxy →
    {!Protocol.Batcher} (inside the ring proposers) → Multi-Ring ordered
    delivery → {!Psmr.Executor} dependency-aware execution →
    {!Smr.Btree_service} storage — plus a lease-based read-serving tier:

    - every replica periodically proposes itself a {e lease} through the
      ordered log (a grant carries an absolute expiry stamped at submit
      time); the lease table is log-driven, so replicas agree on it at
      every log position;
    - a lease holder answers single-key reads {e locally}, without a
      consensus round, while its own lease is valid and covers the keys
      ({!Btree.Keyset.subset}); the read runs on the replica's executor
      workers ({!Psmr.Executor.read});
    - an ordered read-only command ({!Smr.Btree_service.read_only}) runs
      only at its responder replica, the one that answers it;
    - a conflicting write {e invalidates} overlapping leases when applied
      (the lease epoch bumps), and the write's client response is held
      until every other replica holding a covering lease has acknowledged
      applying it — or that lease's deadline has provably passed;
    - a client whose local read is refused (or times out against a dead
      replica) falls back to the ordered path and backs off that replica.

    Validity checks compare against the simulation's single virtual clock,
    i.e. perfect clock synchronisation — the classical lease assumption,
    here exact by construction.  The design follows quorum leases (Moraru
    et al., SoCC'14) specialised to full-replica leases.

    Histories (reads with observed values, uniquely-valued writes) can be
    recorded and checked against {!Smr.Linearizability.Kv}. *)

module Ycsb = Ycsb
module Slo = Slo

type config = {
  n_replicas : int;
  n_workers : int;  (** executor worker threads per replica *)
  executor : Psmr.Executor.mode;
      (** how each replica's executor schedules commands: [Pessimistic]
          (the default) waits for conflicting predecessors; [Optimistic]
          runs speculatively and rolls back on a conflict at commit *)
  ring : Ringpaxos.Mring.config;
  lambda : float;
  delta : float;
  merge_m : int;
  leases : bool;  (** grant leases and serve local reads *)
  lease_dur : float;  (** lease length, seconds of virtual time *)
  lease_backoff : float;  (** client-side nack/timeout backoff per replica *)
  read_timeout : float;  (** local-read timeout against a dead replica *)
  initial_keys : int;
  key_range : int;
  record_history : bool;  (** keep a {!Smr.Linearizability.Kv} history *)
}

val default_config : config

type Simnet.payload +=
  | KOp of { op : Simnet.payload; reads : Btree.Keyset.t; writes : Btree.Keyset.t }
  | KGrant of { replica : int; keys : Btree.Keyset.t; until : float }
  | KResp of { uid : int; obs : int option }
  | KWAck of { uid : int; replica : int }
  | KReadReq of { rid : int; client : int; key : int }
      (** a lease-served point read *)
  | KReadResp of { rid : int; ok : bool; obs : int option }

type t

(** [create net cfg ~n_clients] builds the deployment: one ring,
    [n_clients] client proxies, [cfg.n_replicas] learner replicas (each
    with its own btree and executor).  [on_broadcast]/[on_deliver] tap the
    ordered stream for an external safety auditor (chaos harness). *)
val create :
  ?on_broadcast:(uid:int -> unit) ->
  ?on_deliver:(replica:int -> uid:int -> unit) ->
  Simnet.t ->
  config ->
  n_clients:int ->
  t

(** [start_open t wl ~until] drives arrivals from an open-loop workload
    (e.g. a {!Ycsb} preset) until the virtual-time horizon: single-key
    reads go to the lease tier when one is available, everything else
    through the ordered log.  Also starts the lease-renewal loops. *)
val start_open : t -> Smr.Workload.Open_loop.t -> until:float -> unit

(** {2 Point-op client}

    [put] and [get] issue one command through the ordered log (never the
    lease tier), from the client proxies in turn.  [k] runs when the
    responder's reply arrives: [get] hands it the value at the command's
    log position ([None] for an absent key), [put] always [None].  A
    command the proposer's window refuses is counted by {!drops} and its
    [k] never runs. *)

val put : t -> key:int -> value:int -> k:(int option -> unit) -> unit
val get : t -> key:int -> k:(int option -> unit) -> unit

(** Crash the ring's current coordinator; a spare acceptor takes over and
    the service keeps answering. *)
val kill_coordinator : t -> unit

(** Per-class latency meters ("read-local", "read", "update", "insert",
    "scan"). *)
val slo : t -> Slo.t

(** Event counters (kv_local_reads, kv_local_nacks, kv_lease_grants,
    kv_lease_invalidations, kv_wacks, kv_deadline_responses,
    kv_read_timeouts, kv_drops, ...). *)
val counters : t -> (string * int) list

val counter : t -> string -> int

(** Ordered-path commands accepted by a proposer. *)
val issued : t -> int

(** Ordered-path commands dropped by a full proposer window. *)
val drops : t -> int

val inflight_count : t -> int

(** Write responses still deferred on lease acknowledgements. *)
val pending_writes : t -> int

(** Ordered commands executed, summed across replicas: an update counts
    once per replica, a read-only command once (at its responder).
    Lease-served reads are not counted. *)
val executed : t -> int

(** Speculative re-executions, summed across replicas: always 0 under the
    [Pessimistic] executor (see {!Psmr.Executor.rollbacks}). *)
val rollbacks : t -> int

(** Fingerprint of replica [r]'s btree (replicas must agree). *)
val state_fingerprint_at : t -> int -> int

(** Conflicting-write invalidations [replica] has applied to its own
    lease. *)
val lease_epoch : t -> replica:int -> int

val replica_proc : t -> int -> Simnet.proc
val client_proc : t -> int -> Simnet.proc

(** The recorded history (requires [record_history]); writes that were
    issued and applied but never acknowledged are kept with an open
    response time. *)
val history : t -> Smr.Linearizability.Kv.op list

(** Run {!Smr.Linearizability.Kv.check} over {!history} against the
    pre-run tree contents. *)
val check_history : t -> bool

(** White-box hooks for regression tests. *)
module Testing : sig
  (** Make every replica keep serving local reads even when its lease has
      expired or been invalidated — the bug the linearizability checker
      must catch. *)
  val break_leases : t -> unit

  (** Issue one arrival now, as {!start_open} does at its due time: tests
      use it to send commands no generator produces (e.g. an update
      declared with an empty write set). *)
  val issue : t -> Smr.Workload.Open_loop.arrival -> unit

  (** Responded writes remembered for straggler lease acks. *)
  val done_uids : t -> int
end
