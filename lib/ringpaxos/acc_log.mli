(** An M-Ring acceptor's log: a slot per instance, the GC floor, the uids
    of the votes GC pruned, and two running counters (voted bytes,
    decided slots) kept equal to a recount.  DESIGN.md ("M-Ring's
    modules") gives the invariants and the durable rule: {!set_vote}
    clears the durable flag, and a write completion for a vote since
    replaced marks nothing. *)

type t

(** [s_rnd] is -1 and [s_val] an empty value while the slot holds no vote. *)
type slot = private {
  mutable s_rnd : int;
  mutable s_val : Paxos.Value.t;
  mutable s_parts : int list;
  mutable s_decided : bool;
  mutable s_durable : bool;  (** the vote's write completed *)
}

val create : unit -> t

(** [inst]'s slot; an empty one, never stored, if the log holds none. *)
val peek : t -> int -> slot
val is_decided : t -> int -> bool

(** [same_vote l inst rnd vid]; [ready l inst vid]: voted [vid], durably;
    [durable l inst]: durable, or no slot at all (pruned after f+1 learners
    applied it, as good as durable). *)
val same_vote : t -> int -> int -> int -> bool
val ready : t -> int -> int -> bool
val durable : t -> int -> bool
val set_vote : t -> int -> int -> Paxos.Value.t -> int list -> unit
val mark_decided : t -> int -> unit

(** Marks [inst] durable if it still holds that vote; says whether it did. *)
val mark_durable : t -> int -> rnd:int -> vid:int -> bool

(** Over every slot, in table order. *)
val fold : t -> (int -> slot -> 'a -> 'a) -> 'a -> 'a
val iter : t -> (int -> slot -> unit) -> unit

(** [absorb l ~from] takes over [from]'s decided marks, done uids and GC
    floor: the coordinator role's handoff. *)
val absorb : t -> from:t -> unit
val gc_floor : t -> int
val done_uids : t -> Protocol.Uid_set.t

(** Raises the GC floor, dropping each slot below it into {!done_uids}. *)
val prune : t -> floor:int -> unit

(** [vote_bytes] sums the voted values' sizes; [mem_bytes] adds 16 per
    decided slot; [consistent] says both counters equal a recount. *)
val vote_bytes : t -> int
val mem_bytes : t -> int
val consistent : t -> bool

(** Forgets every slot and done uid; the GC floor stays. *)
val clear : t -> unit
