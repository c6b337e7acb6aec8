(** The replicated B+-tree service of Chapter 4 (§4.4.2).

    Commands are [insert(key, value)], [delete(key)] and
    [query(key_min, key_max)] over 8-byte integer tuples.  Execution costs
    are a calibrated virtual-time model (the simulated 2 GHz Opteron);
    state changes are applied to a real {!Btree} so replica equivalence can
    be checked exactly, and undo closures support speculative rollback
    (an insert is rolled back by a delete; a delete by re-inserting the old
    tuple, §4.4.2). *)

(** Command payloads (also produced by {!Workload}). *)
type Simnet.payload +=
  | Insert of { key : int; value : int }
  | Delete of { key : int }
  | Query of { lo : int; hi : int }
  | Batch of Simnet.payload list  (** Ins/Del (batch): several updates *)

(** [read_only op] — [op] changes no state: it is a [Query].  Decided by
    the command itself, never by the key-sets a client declares for it,
    so a mis-declared update still runs at every replica. *)
val read_only : Simnet.payload -> bool

type cost_model = {
  update_cost : float;  (** one insert/delete, seconds *)
  query_base : float;
  query_per_key : float;
  cmd_overhead : float;
  update_resp : int;  (** bytes: small status reply (256 B in §4.4.2) *)
  query_resp : int;  (** bytes: 8 KB result for range queries *)
}

val default_costs : cost_model

(** A service together with its backing tree (exposed for replica
    equivalence checks in tests and benches). *)
type t = { service : Service.t; tree : Btree.t }

(** [create ~costs ~initial_keys ~key_range ~seed ()] builds a service over
    a freshly populated tree.  The paper uses 12 M keys; experiments here
    default to a smaller tree with the same cost model (documented
    substitution — costs do not depend on the population). *)
val create :
  ?costs:cost_model -> ?initial_keys:int -> ?key_range:int -> ?seed:int -> unit -> t

(** [fingerprint t] hashes the tree contents (order-sensitive), for cheap
    replica-equivalence checks. *)
val fingerprint : t -> int
