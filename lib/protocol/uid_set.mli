(** A set of item uids from one deployment-wide counter, kept as a floor
    plus a sparse window.

    Every uid a ring mints carries a sequence number
    ({!Paxos.Value.uid_seq}) from one counter that starts at 1, so within
    one ring the sequence number names the uid.  The rings' dedup sets
    end up holding almost every sequence number below some point: the
    set stores that point as [floor] (every sequence number below it is a
    member) and keeps only the members above it in a table.  Adding the
    sequence number at the floor advances it, over any sparse members
    right behind it.  Membership answers are those of the plain set of
    uids, provided every uid asked about or added comes from the same
    counter. *)

type t

(** The empty set: floor 1, no sparse members. *)
val create : unit -> t

val mem : t -> int -> bool
val add : t -> int -> unit

(** Every sequence number below [floor] is a member. *)
val floor : t -> int

(** Members above the floor, as uids, in no particular order. *)
val sparse_list : t -> int list

val sparse_count : t -> int

(** [raise_floor s f] adds every sequence number below [f]. *)
val raise_floor : t -> int -> unit

(** [union ~into src] adds every member of [src] to [into]. *)
val union : into:t -> t -> unit

(** Back to the empty set. *)
val reset : t -> unit
