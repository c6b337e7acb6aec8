(** Continuous atomic-broadcast safety auditor.

    One auditor taps the delivery stream of every learner of a protocol
    under chaos.  Each delivery is checked incrementally (O(1)):

    - {e no-creation}: the uid was broadcast;
    - {e no-duplication}: the learner has not delivered it before;
    - {e total order / agreement prefix}: learner [l]'s k-th delivery
      must equal the k-th entry of the canonical sequence (extended by
      whichever learner gets there first).

    The prefix check assumes learners deliver {e gap-free identical
    streams} — true for every protocol wired into the chaos harness,
    whose learners all subscribe to the full message stream.  The final
    {!verdict} additionally runs the general pairwise oracles of
    {!Abcast.Properties} over the complete logs, so the incremental
    shortcut never stands alone. *)

type t

val create : name:string -> n_learners:int -> t

(** Record an accepted broadcast of an application-level uid. *)
val broadcast : t -> int -> unit

(** Record a delivery; incremental invariant checks run immediately. *)
val delivered : t -> learner:int -> int -> unit

type verdict = {
  ok : bool;
  violations : string list;  (** capped at 20, oldest first *)
  broadcast : int;
  delivered : int array;
}

(** [verdict ?alive t] re-checks the complete logs with
    {!Abcast.Properties.integrity} and {!Abcast.Properties.total_order},
    and uniform agreement at quiescence across the learners listed in
    [alive] (default: all). *)
val verdict : ?alive:int list -> t -> verdict
