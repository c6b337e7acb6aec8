(** M-Ring Paxos — Algorithm 2 of the dissertation (multicast-based).

    A majority quorum of [f + 1] acceptors is arranged in a logical directed
    ring whose last process is the coordinator (itself an acceptor); the
    remaining [f] acceptors are spares.  Proposals reach the coordinator over
    reliable unicast; Phase 2A messages (value + unique value id) are
    ip-multicast to the in-ring acceptors and the learners; Phase 2B messages
    carry ids only and circulate along the ring; the final decision is a
    small ip-multicast of the chosen value's id.

    Implemented features from §3.3: batching into fixed-size packets,
    a window of overlapping instances, window-based flow control driven by
    learner slow-down notifications, garbage collection driven by learner
    versions, message-loss recovery through preferential acceptors,
    coordinator failure detection and ring reconfiguration with spares,
    synchronous/asynchronous disk durability (§3.5.5, Ch. 5), speculative
    delivery (Ch. 4) and state partitioning over multiple multicast groups
    (Ch. 4). *)

type t

type durability = Memory | Sync_disk | Async_disk

type config = {
  f : int;  (** tolerated acceptor failures; the ring has [f+1] members *)
  window : int;
  batch_bytes : int;
  batch_timeout : float;
  durability : durability;
  fc_threshold : int;  (** learner pending-decision threshold *)
  hb_period : float;
  hb_timeout : float;
  gc_period : float;
  partitions : int;  (** multicast groups for state partitioning; 1 = plain *)
  proposer_buffer : int;
      (** per-proposer unacknowledged-bytes bound; {!submit} returns -1
          once exceeded (16 MB default).  Shrink it to force open-loop
          window-overflow drops in tests. *)
}
(** The rest is fixed: the coordinator's proposal buffer (160 MB, §3.5.2),
    its Phase 2A pacing ceiling (0.85 Gbps), the flow-control window
    regrowth cadence (0.1 s), the Phase 2A retransmission and gap-repair
    timeout (5 ms), and the activation lag [reconfig_alpha] of a
    membership change (64 instances). *)

val default_config : config

(** [create net cfg ~n_proposers ~n_learners ~learner_parts ~deliver] builds
    the deployment.  [learner_parts i] lists the partitions learner [i]
    subscribes to (use [[0]] or [all] when [partitions = 1]).

    [learner_nodes] places learner processes on existing machines (used by
    Multi-Ring Paxos, whose learners subscribe to several rings from one
    machine and must share its NIC and CPU).

    [deliver ~learner ~inst v] fires in instance order at each learner;
    [v = None] marks an instance addressed only to partitions the learner
    does not subscribe to.  [speculative ~learner ~inst v] (optional) fires
    as soon as the learner ip-delivers the Phase 2A message, before the
    decision — Chapter 4's speculative delivery. *)
val create :
  ?speculative:(learner:int -> inst:int -> Paxos.Value.t -> unit) ->
  ?learner_nodes:Simnet.node array ->
  Simnet.t ->
  config ->
  n_proposers:int ->
  n_learners:int ->
  learner_parts:(int -> int list) ->
  deliver:(learner:int -> inst:int -> Paxos.Value.t option -> unit) ->
  t

(** [submit t ~proposer ?parts ~size app] proposes an application message to
    the given partitions (default [[0]]); returns the item uid, or [-1] if
    the proposal was dropped because the coordinator buffer is full. *)
val submit : t -> proposer:int -> ?parts:int list -> size:int -> Simnet.payload -> int

(** {1 Handles for failure injection and measurement} *)

val coordinator_proc : t -> Simnet.proc

(** All acceptor processes, in-ring first, then spares. *)
val acceptor_procs : t -> Simnet.proc array

val learner_proc : t -> int -> Simnet.proc
val proposer_proc : t -> int -> Simnet.proc
val ring_size : t -> int

val kill_coordinator : t -> unit
val kill_ring_acceptor : t -> int -> unit  (** by position, 0 = first *)

(** [crash_acceptor t i] crashes acceptor [i] (global index), losing every
    piece of state not on stable storage (§3.3.5): with [Memory] durability
    the acceptor is wiped; with the disk modes promises and votes survive. *)
val crash_acceptor : t -> int -> unit

(** [restart_acceptor t i] restarts a crashed acceptor, reloading its
    persisted state from disk first when durability is enabled. *)
val restart_acceptor : t -> int -> unit

(** Per-learner processing cost per delivered instance, seconds — used by
    the flow-control experiment to create a slow learner. *)
val set_learner_delay : t -> int -> float -> unit

val decided : t -> int
val current_window : t -> int

(** Proposals dropped at the coordinator because its buffer overflowed. *)
val coord_drops : t -> int

(** Protocol event counters accumulated since startup, per instance
    (sorted name/count pairs; see {!Protocol.Counters}). *)
val counters : t -> (string * int) list

(** Disk attached to acceptor position [i] of the ring (durable modes). *)
val disk : t -> int -> Storage.Disk.t option

(** {1 Dynamic membership}

    A membership change is an ordinary command ordered through the log:
    deciding it at instance [i] schedules its activation at [i + 64]
    ([reconfig_alpha]).  Until activation the coordinator caps its
    pipeline below the activation instance, fills any undecided holes with
    no-ops and waits for in-flight instances to drain, so the epoch
    boundary is a decided prefix — no delivery is lost or duplicated
    across it.  At activation the new ring is installed, removed members
    retire (they keep answering Phase 1 and repair requests, preserving
    quorum intersection), joining ring members replay the decided prefix
    in the background, added learners start delivering exactly at the
    activation instance, and the failure detector moves to the new epoch
    so suspicions from the old one cannot fire. *)

(** [add_acceptor t] grows the acceptor pool with a fresh spare and
    returns its global index.  The spare serves Phase 1 and repair
    traffic but joins no ring until a reconfiguration elects it. *)
val add_acceptor : t -> int

(** [stage_learner t ~parts] creates an inactive learner subscribed to
    [parts] and returns its index; it delivers nothing until a
    reconfiguration activates it. *)
val stage_learner : t -> parts:int list -> int

(** [reconfigure t ?add_learners ?remove_learners ?retire ~ring ()]
    submits a membership change: [ring] lists the new ring's acceptor
    indexes, coordinator last.  Returns the command's item uid ([-1] if
    the proposal buffer is full; the command is retried by the proposer's
    resubmission loop either way).  Raises [Invalid_argument] when [ring]
    is empty, repeats a member, names a retired or out-of-range acceptor,
    retires a member of the new ring, or is too small to intersect every
    Phase-1 majority of the pool. *)
val reconfigure :
  t ->
  ?add_learners:int list ->
  ?remove_learners:int list ->
  ?retire:int list ->
  ring:int list ->
  unit ->
  int

(** The current membership epoch (0 at creation, +1 per activation). *)
val epoch : t -> int

(** The current ring, coordinator last. *)
val membership : t -> int list

(** A membership change is pending (proposed or decided, not yet active). *)
val reconfiguring : t -> bool

(** Acceptor [i] is still replaying the decided prefix of the epoch it
    joined in. *)
val catching_up : t -> int -> bool

(** Learner [i] delivers (inactive learners are staged or removed). *)
val learner_active : t -> int -> bool

(** {1 Test hooks} *)

module Testing : sig
  (** Every acceptor's and learner's running counters equal a full
      recount of the table they track: an acceptor's voted bytes and
      decided slots in its log, a learner's undelivered value bytes. *)
  val mem_consistent : t -> bool

  (** Uids held above the floor of every acceptor's two dedup sets, the
      done uids of its pruned votes and the uids it saw as coordinator. *)
  val dedup_sparse : t -> int

  (** The payload is a Phase 1B reply. *)
  val is_p1b : Simnet.payload -> bool
end
