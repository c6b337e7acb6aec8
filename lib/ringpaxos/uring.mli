(** U-Ring Paxos — Algorithm 3 of the dissertation (unicast-based).

    All processes are placed in one logical directed ring and communicate
    over reliable unicast only (no ip-multicast): proposals travel along the
    ring to the coordinator (the first acceptor); combined Phase 2A/2B
    messages flow through the voting acceptors; the last acceptor detects
    the decision, which then circulates around the ring carrying the chosen
    value so every process delivers it.

    A ring position may combine roles (§3.5.4 runs every process as
    proposer + acceptor + learner).  Batching uses 32 KB packets by default
    (§3.5.2); durable modes write to disk before forwarding, which makes
    disk latency sequential along the ring (Fig. 3.9). *)

type t

type role = Acceptor | Proposer | Learner

type config = {
  f : int;  (** tolerated failures; [f + 1] acceptors vote per instance *)
  durability : Mring.durability;
}
(** The rest is fixed: a window of 64 outstanding instances, 32 KB
    batches sealed after 0.5 ms, an 80 MB proposal buffer, 20 ms
    heartbeats with a 0.25 s timeout, and proposer resubmission after
    0.5 s. *)

val default_config : config

(** [create net cfg ~positions ~deliver] builds a ring whose i-th position
    carries the given role set.  Acceptors are numbered in ring order (the
    first is the coordinator); there must be at least [2f + 1] of them.
    Proposers and learners are numbered in ring order as well.
    [deliver] fires per learner in instance order. *)
val create :
  Simnet.t ->
  config ->
  positions:role list array ->
  deliver:(learner:int -> inst:int -> Paxos.Value.t -> unit) ->
  t

(** [standard_positions ~n] is [n] positions, each proposer + acceptor +
    learner — the all-roles deployment used in §3.5.4. *)
val standard_positions : n:int -> role list array

(** [submit t ~proposer ~size app] proposes via the given proposer; the
    message is forwarded along the ring to the coordinator. *)
val submit : t -> proposer:int -> size:int -> Simnet.payload -> int

val coordinator_proc : t -> Simnet.proc
val position_proc : t -> int -> Simnet.proc
val learner_proc : t -> int -> Simnet.proc
val proposer_proc : t -> int -> Simnet.proc

val kill_position : t -> int -> unit
val kill_coordinator : t -> unit

val decided : t -> int

(** Disk attached to the [i]-th acceptor, when durability is enabled. *)
val disk : t -> int -> Storage.Disk.t option
