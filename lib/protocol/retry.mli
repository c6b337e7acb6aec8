(** Named periodic retry timers and cancel-on-ack retransmission state.

    A protocol keeps one [tracker] per class of unacknowledged work
    (proposer items awaiting commit, coordinator instances awaiting
    quorum) and drives it from a named [every] timer: each firing walks
    the overdue entries with [iter_due] and retransmits them; an
    acknowledgment ([ack]) cancels the retry. *)

type t

(** [every ?counters net ~name ~period f] runs [f] every [period] seconds
    forever.  With [counters], each firing also bumps the
    ["<name>_tick"] counter. *)
val every :
  ?counters:Counters.t -> Simnet.t -> name:string -> period:float -> (unit -> unit) -> t

val name : t -> string
val stop : t -> unit

(** Unacknowledged work items, each stamped with its last send time.
    Times are engine ticks, as [Simnet.now_tk] reads them. *)
type ('k, 'v) tracker

val tracker : unit -> ('k, 'v) tracker

(** [watch tr ~now_tk key v] registers (or re-registers) an item and
    stamps it as sent at tick [now_tk]. *)
val watch : ('k, 'v) tracker -> now_tk:int -> 'k -> 'v -> unit

(** Restamp an item's last send time without changing its payload. *)
val touch : ('k, 'v) tracker -> now_tk:int -> 'k -> unit

(** [ack tr key] cancels the retry; [true] if the item was still being
    watched. *)
val ack : ('k, 'v) tracker -> 'k -> bool

val mem : ('k, 'v) tracker -> 'k -> bool

(** [find tr key] is the watched payload.  Raises [Not_found]. *)
val find : ('k, 'v) tracker -> 'k -> 'v
val length : ('k, 'v) tracker -> int
val iter : ('k, 'v) tracker -> ('k -> 'v -> unit) -> unit
val clear : ('k, 'v) tracker -> unit

(** [iter_due tr ~now_tk ~older_than f] calls [f] on every item last
    sent more than [older_than] seconds ago, restamping each visited item
    to [now_tk] so it backs off a full period before the next retry. *)
val iter_due :
  ('k, 'v) tracker -> now_tk:int -> older_than:float -> ('k -> 'v -> unit) -> unit
