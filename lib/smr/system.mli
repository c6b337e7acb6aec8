(** State-machine replication over M-Ring Paxos — the replicated deployments
    of Chapter 4.

    A deployment has [partitions × replicas_per_partition] replicas, each a
    learner of the (optionally partitioned) M-Ring Paxos instance, and a set
    of closed-loop clients acting as proposers.  Per §4.4.2:

    - updates are executed by every replica of the addressed partition and
      answered by one designated replica;
    - range queries are executed and answered by the designated replica
      only;
    - cross-partition queries are split by the client library into
      sub-commands and the partial responses merged at the client;
    - execution runs on a dedicated executor thread per replica, separate
      from the network path (the 3-4 thread server of §4.4.2);
    - with [speculative = true] replicas execute commands when the Phase 2A
      multicast arrives and answer once the order is confirmed, rolling
      back if arrival order and decision order disagree (§4.2.1). *)

type config = {
  mring : Ringpaxos.Mring.config;
  replicas_per_partition : int;
  speculative : bool;
}
(** A read-only command ({!Btree_service.read_only}) runs only at its
    designated responder. *)

val default_config : config

type t

(** [create net cfg ~services ~n_clients ~gen] builds the deployment;
    [services learner] supplies each replica's service (replicas of the same
    partition must be observationally identical); [gen client] produces the
    next command of a client's closed loop. *)
val create :
  Simnet.t ->
  config ->
  services:(int -> Service.t) ->
  n_clients:int ->
  gen:(int -> Workload.command) ->
  t

(** [start t] launches every client's closed loop. *)
val start : t -> unit

(** Client-side metrics (completed commands, Kcps, response time). *)
val metrics : t -> Metrics.t

val mring : t -> Ringpaxos.Mring.t

(** Executor-thread utilisation of a replica over a window, percent. *)
val exec_utilization : t -> learner:int -> from:float -> till:float -> float

(** Busy time of the replica's network/response path (its process CPU). *)
val replica_proc : t -> learner:int -> Simnet.proc

(** Commands executed at a replica (for cost accounting). *)
val executed : t -> learner:int -> int

(** Speculative executions that had to be rolled back. *)
val rollbacks : t -> learner:int -> int

val n_replicas : t -> int
