(** Multi-Ring Paxos — Chapter 5's atomic multicast.

    One M-Ring Paxos instance per group; learners subscribe to one or more
    groups and merge the streams deterministically, delivering [m]
    messages per group in group-id order (Algorithm 1 of Chapter 5).
    Each ring's coordinator side runs a rate controller: every [delta]
    seconds it compares the traffic multicast to its group against
    [lambda] (the maximum expected rate) and proposes {e skip messages} to
    make up the difference, so a slow group never stalls the merge.

    A learner's rings all deliver to the same simulated machine, so the
    aggregate incoming bandwidth and CPU limits of Fig. 5.5 apply.  When a
    learner's unmerged buffer exceeds [buffer_items], the learner halts —
    the overflow behaviour of Fig. 5.9.

    Accounting note (documented substitution): skips are tracked in
    application messages rather than raw consensus instances; one small
    skip message proposed through the ring stands for [count] skipped
    slots, exactly like the paper's batched skip instances. *)

type config = {
  ring : Ringpaxos.Mring.config;  (** configuration of every ring *)
  n_rings : int;  (** rings (delta of §5.2.4) *)
  n_groups : int;
      (** groups (gamma); 0 means one group per ring.  With more groups
          than rings, group [g] is ordered by ring [g mod n_rings] and
          learners may receive (and discard) traffic of co-hosted groups
          they do not subscribe to — §5.2.4's trade-off. *)
  lambda : float;  (** max expected messages per second per group *)
  delta : float;  (** sampling interval of the skip controller *)
  m : int;  (** messages delivered per group per merge round *)
  buffer_items : int;  (** learner halt threshold (Fig. 5.9) *)
}

val default_config : config

(** [service_config ring ~n_rings] is the merge the replicated services
    ([Kv] over one ring, [Psmr] over one or more) run on [n_rings] rings of
    configuration [ring]: one group per ring, a skip controller expecting
    50,000 messages per second per group sampled every 1 ms, 8 messages
    per group per merge round, and a learner halt past 500,000 unmerged
    items. *)
val service_config : Ringpaxos.Mring.config -> n_rings:int -> config

type t

(** [create net cfg ~n_learners ~subs ~proposers_per_ring ~deliver] builds
    the ensemble; [subs l] lists the groups learner [l] subscribes to, and
    [deliver ~learner ~group it app] fires in merged order with the
    originating group.  [app] is the payload given to {!multicast}; [it] is
    the ring's item as ordered, whose own [app] field still carries the
    group tag, so read the payload from [app], not from [it.app]. *)
val create :
  ?learner_nodes:Simnet.node array ->
  Simnet.t ->
  config ->
  n_learners:int ->
  subs:(int -> int list) ->
  proposers_per_ring:int ->
  deliver:(learner:int -> group:int -> Paxos.Value.item -> Simnet.payload -> unit) ->
  t

(** [multicast t ~group ~proposer ~size app] sends to one group. *)
val multicast : t -> group:int -> proposer:int -> size:int -> Simnet.payload -> int

val ring : t -> int -> Ringpaxos.Mring.t
val n_rings : t -> int

(** A network process of learner [l] (on its machine), for sending
    application responses. *)
val learner_proc : t -> int -> Simnet.proc

(** The process of application proposer [proposer] on [group]'s ring. *)
val proposer_proc : t -> group:int -> proposer:int -> Simnet.proc

(** Unmerged buffered messages at a learner (all groups). *)
val learner_buffer : t -> int -> int

val learner_halted : t -> int -> bool

(** Messages delivered (merged) at a learner. *)
val learner_delivered : t -> int -> int

(** Per-(learner, group) receive counter — the "receiving throughput"
    series of Fig. 5.11. *)
val received : t -> learner:int -> group:int -> int

val kill_ring_coordinator : t -> int -> unit

(** [reconfigure_ring t r ~ring] submits a membership change to ring [r]
    (see {!Ringpaxos.Mring.reconfigure}); returns the command's item uid.
    The merge is unaffected: the skip controllers of the groups carried by
    [r] keep topping traffic up to [lambda] across the handoff, carrying
    any refused window as a deficit into the next one. *)
val reconfigure_ring : t -> int -> ring:int list -> int

(** Membership epoch of ring [r]. *)
val ring_epoch : t -> int -> int

(** Skip messages proposed so far by the controller of a group. *)
val skips_proposed : t -> int -> int

(** Items learner [l] received for co-hosted groups it does not subscribe
    to (wasted bandwidth of the gamma > delta mapping). *)
val foreign_items : t -> int -> int
