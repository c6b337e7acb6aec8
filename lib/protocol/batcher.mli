(** Fixed-size batching of pending proposals (§3.5.2).

    Items are queued per key — a destination-partition set for Multi-Ring
    coordinators, [unit] for single-queue protocols — with byte accounting
    per key and in aggregate, so one key's traffic never dilutes another's
    batches (§4.2.2).  Sealing follows the dissertation's packing rule: pop
    while the batch stays within [batch_bytes], except that the first item
    always pops, so an oversized item seals alone instead of stalling, and
    [batch_bytes <= 0] disables batching (every batch is one item). *)

type 'k t

(** [create ?buffer_bytes ~batch_bytes ()] — [buffer_bytes] bounds the
    aggregate queued bytes (unbounded by default); [batch_bytes] is the
    seal threshold and packet budget. *)
val create : ?buffer_bytes:int -> batch_bytes:int -> unit -> 'k t

(** [enqueue t ~key item] queues [item]; [false] means the buffer bound
    was hit, the item was rejected, and [drops] was incremented. *)
val enqueue : 'k t -> key:'k -> Paxos.Value.item -> bool

val pending_bytes : 'k t -> int
val is_empty : 'k t -> bool

(** Items rejected by the buffer bound so far. *)
val drops : 'k t -> int

(** Some key holding at least [batch_bytes] of traffic, if any; with
    batching disabled, the largest non-empty key. *)
val ready : 'k t -> 'k option

(** The key with the most pending bytes and its byte count, if any. *)
val largest : 'k t -> ('k * int) option

(** [seal t key] pops one batch's worth of items from [key]'s queue. *)
val seal : 'k t -> 'k -> Paxos.Value.item list

(** [arm_timeout t net ~timeout f] starts the seal-on-timeout timer: a
    no-op unless something is pending and no timer is armed; the timer
    disarms itself before running [f], so [f] may re-arm. *)
val arm_timeout : 'k t -> Simnet.t -> timeout:float -> (unit -> unit) -> unit

val timer_armed : 'k t -> bool

(** Drop all queued items (crash recovery).  Keeps the drop counter. *)
val clear : 'k t -> unit
