(** Workload generators for the Chapter 4 experiments (§4.4.2):

    - [Queries]: range queries over an interval of [query_span] keys, keys
      uniform; a configurable percentage straddles a partition boundary and
      becomes a cross-partition command (§4.4.5).
    - [Ins_del_single]: one insert or delete per command.
    - [Ins_del_batch]: seven updates per command (§4.4.2).

    Commands are 256 bytes on the wire. *)

type kind = Queries | Ins_del_single | Ins_del_batch

type command = {
  op : Simnet.payload;
  parts : int list;  (** partitions the command must reach *)
  size : int;  (** request bytes *)
}

type t

val create :
  ?cross_pct:int ->
  ?query_span:int ->
  Sim.Rng.t ->
  kind ->
  key_range:int ->
  n_partitions:int ->
  t

(** [next t] generates the next command. *)
val next : t -> command

(** [partition_of ~key_range ~n_partitions key] is the owning partition. *)
val partition_of : key_range:int -> n_partitions:int -> int -> int

(** Open-loop workload generation for the parallel-executor experiments:
    Poisson arrivals at a time-varying rate (nothing waits for responses,
    so the generator stands in for millions of closed-loop clients),
    zipf-skewed or uniform keys, a read/write mix, and optional
    hot-partition storms.  Every arrival carries the read/write key-sets
    the dependency-aware executor schedules by. *)
module Open_loop : sig
  (** Instantaneous arrival rate as a function of time. *)
  type curve =
    | Constant of float
    | Ramp of { from_rate : float; to_rate : float; over : float }
    | Diurnal of { base : float; peak : float; period : float }
        (** sinusoidal day: [base] at the trough, [peak] at the crest *)
    | Storm of { base : float; peak : float; at : float; len : float }
        (** [peak] arrivals during [\[at, at+len)], [base] otherwise *)
    | Seq of (curve * float) list
        (** piecewise composition: each [(curve, dur)] segment runs for
            [dur] seconds of half-open interval [\[start, start+dur)] —
            the boundary instant belongs to the {e next} segment only, so
            a ramp→storm transition never evaluates (or issues) the
            boundary tick twice.  Inner curves see segment-local time;
            the last segment runs forever. *)

  (** Operation classes for the YCSB-style mixes: [Read] is a single-key
      point query, [Scan] a [query_span]-key range query, [Update]
      overwrites an existing key, [Insert] allocates a fresh key above
      every key allocated so far. *)
  type op_kind = Read | Update | Insert | Scan

  (** Key-choice distribution: [Zipf s] skews towards small keys,
      [Latest s] skews towards the most recently {!Insert}ed keys (the
      zipf draw is a recency rank counted down from the newest key). *)
  type key_dist = Uniform | Zipf of float | Latest of float

  type arrival = {
    at : float;  (** arrival time (monotone across calls) *)
    op : Simnet.payload;  (** a {!Btree_service} operation *)
    reads : Btree.Keyset.t;
    writes : Btree.Keyset.t;
    size : int;  (** request bytes *)
  }

  type t

  (** [create rng ~key_range ~rate] — [zipf_s] > 0 skews keys (0 =
      uniform); [read_pct] of commands are range queries of [query_span]
      keys, the rest single-key inserts/deletes (read-modify-write);
      [hot_storm = (start, len, pct)] redirects [pct]% of keys drawn in
      [\[start, start+len)] to the bottom 1% of the key space.

      [ops] replaces the legacy [read_pct] mix with a weighted
      {!op_kind} list (e.g. YCSB-A is [[(Update, 50); (Read, 50)]]);
      [dist] overrides the [zipf_s] shorthand with an explicit key
      distribution.  Updates carry monotonically increasing values, so
      every write in a run is unique — handy for linearizability
      histories. *)
  val create :
    ?zipf_s:float ->
    ?read_pct:int ->
    ?query_span:int ->
    ?hot_storm:float * float * int ->
    ?ops:(op_kind * int) list ->
    ?dist:key_dist ->
    Sim.Rng.t ->
    key_range:int ->
    rate:curve ->
    t

  (** [next t] draws the next arrival; advances the generator clock. *)
  val next : t -> arrival

  (** [peek t] is the arrival the next {!next} will return, without
      consuming it: drivers bound by a horizon look ahead and leave an
      arrival past the horizon unconsumed, so {!generated} counts exactly
      the arrivals handed out (issued + dropped), never a discarded
      lookahead. *)
  val peek : t -> arrival

  (** The rate the curve prescribes at a given time. *)
  val rate_at : t -> float -> float

  (** Arrivals consumed through {!next} (a {!peek}ed-but-unconsumed
      arrival is not counted). *)
  val generated : t -> int

  (** Time of the last arrival drawn (including a pending {!peek}). *)
  val clock : t -> float

  (** Highest key allocated so far ([key_range] until the first
      {!Insert}). *)
  val max_key : t -> int
end
