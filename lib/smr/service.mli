(** The deterministic service a replica executes — command semantics plus a
    virtual-time cost model and, on demand, an undo for speculative
    rollback. *)

(** Result of executing one command.  Immutable: a service may answer the
    same outcome to many commands, so callers must not keep state in it. *)
type outcome = {
  resp_size : int;  (** bytes of the response sent to the client *)
  cost : float;  (** execution time charged to the replica, seconds *)
}

type t = {
  execute : Simnet.payload -> outcome;
  last_undo : unit -> (unit -> unit) option;
      (** The inverse of the most recent [execute], built when asked
          ([None] when that command changed nothing).  Only a caller that
          may roll back asks, and it must ask before the next [execute]:
          running the inverse restores the state from before that command.
          Callers that never roll back never ask, so executing a command
          builds no undo at all. *)
  rollback_cost : float;  (** extra time charged when undoing a command *)
}

(** A service that ignores its input: every command costs [cost] and answers
    [resp_size] bytes (the "dummy service" of Fig. 5.2). *)
val dummy : ?cost:float -> ?resp_size:int -> unit -> t
