(** Per-instance event counters.

    Every protocol instance carries its own [Counters.t] rather than a
    module-global table, so two instances in one process (e.g. the rings of
    a Multi-Ring deployment) never share or clobber each other's counts.
    [snapshot] feeds [Sim.Stats.Snapshot] so [--json] bench output includes
    protocol-level counters. *)

type t

val create : unit -> t

(** [incr t name] bumps [name] by one, creating it at 0 first if needed. *)
val incr : t -> string -> unit

(** [add t name n] bumps [name] by [n]. *)
val add : t -> string -> int -> unit

(** [get t name] is the current count, 0 when never incremented. *)
val get : t -> string -> int

(** Sorted [(name, count)] view of every counter touched so far. *)
val snapshot : t -> (string * int) list

val reset : t -> unit
