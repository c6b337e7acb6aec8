(** The non-replicated client-server baseline of Chapter 4 (Fig. 4.1):
    clients talk to a single multithreaded server directly, without an
    agreement layer. *)

type t

(** [create net ~n_threads ~service ~n_clients ~gen] builds a server with
    [n_threads] executor threads and [n_clients] closed-loop clients. *)
val create :
  Simnet.t ->
  n_threads:int ->
  service:Service.t ->
  n_clients:int ->
  gen:(int -> Workload.command) ->
  t

val start : t -> unit
val metrics : t -> Metrics.t
