(** Values decided by consensus.

    A value is a batch of application items: the coordinator packs proposals
    into fixed-size packets (§3.5.2), and consensus is executed on the batch.
    Each value carries a unique identifier [vid] so protocols that separate
    dissemination from ordering (Ring Paxos) can decide on ids alone. *)

type item = {
  uid : int;  (** globally unique item id, for duplicate suppression *)
  isize : int;  (** application bytes of this item *)
  app : Simnet.payload;  (** opaque application content *)
  born : float;  (** submission time, for end-to-end latency *)
}

type t = {
  vid : int;
  size : int;  (** total application bytes, the sum of item sizes *)
  items : item list;
}

(** {1 Item uid layout}

    Uids pack a per-protocol sequence number above the originating
    proposer id (ring position for U-Ring Paxos): [uid = seq lsl 20 lor
    origin].  All encoders and decoders must go through these helpers so
    the field width stays consistent; 20 origin bits support ~1M
    proposers. *)

val make_uid : seq:int -> origin:int -> int

(** The originating proposer id packed into a uid. *)
val uid_origin : int -> int

(** The monotone sequence number packed into a uid. *)
val uid_seq : int -> int

(** [make ~vid items] computes the size from the items. *)
val make : vid:int -> item list -> t

(** [single ~vid ~uid ~size ~born app] is a one-item value. *)
val single : vid:int -> uid:int -> size:int -> born:float -> Simnet.payload -> t

(** A zero-sized skip value (Multi-Ring Paxos skip instances). *)
val skip : vid:int -> t
