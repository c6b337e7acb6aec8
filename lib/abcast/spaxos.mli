(** S-Paxos (Biely et al.) — the dissemination-balanced Paxos of §3.4/§7.2.1.

    Clients submit to an arbitrary replica; the replica batches requests and
    forwards the batch to every other replica; replicas acknowledge each
    batch to all replicas (the O(n²) ack traffic the paper calls
    CPU-intensive); a batch is {e stable} once f+1 acknowledgements are
    seen.  The leader runs Paxos on batch {e ids} only; a replica delivers a
    batch when it is both ordered and stable.

    The per-batch CPU cost and stochastic garbage-collection pauses are
    calibrated to Table 3.2 (31 % efficiency at 32 KB) and §3.5.4's
    observation that Java GC pushes mean latency above 35 ms. *)

type t

type config = {
  f : int;  (** replicas = 2f+1 *)
  batch_bytes : int;
  batch_timeout : float;
  window : int;
  gc_pause : float;  (** mean pause length, seconds *)
  hb_period : float;
  hb_timeout : float;
}
(** The rest is fixed: a GC pause comes every 0.4 s on average, and each
    batch costs every replica 0.3 ms of marshaling and dissemination CPU. *)

val default_config : config

val create :
  Simnet.t -> config -> deliver:(learner:int -> Paxos.Value.t -> unit) -> t

(** [submit t ~replica ~size app] sends a client request to a replica. *)
val submit : t -> replica:int -> size:int -> Simnet.payload -> bool

val replica_proc : t -> int -> Simnet.proc
val n_replicas : t -> int
val kill_leader : t -> unit
val kill_replica : t -> int -> unit
val delivered : t -> int
