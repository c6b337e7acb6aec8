(** Delivery measurement shared by every throughput/latency experiment.

    Wire a protocol's delivery callback to {!item} (or {!value}); the
    recorder accumulates application bytes, message counts and end-to-end
    latency (delivery time minus the item's [born] stamp). *)

type t

val create : Sim.Engine.t -> t

(** [item r it] records the delivery of one application item. *)
val item : t -> Paxos.Value.item -> unit

(** [value r v] records every item of a decided value. *)
val value : t -> Paxos.Value.t -> unit

(** [mbps r ~from ~till] application-payload throughput. *)
val mbps : t -> from:float -> till:float -> float

val msgs_per_sec : t -> from:float -> till:float -> float

val items : t -> int
val bytes : t -> int

(** Latencies in milliseconds. *)
val lat_mean_ms : t -> float

(** The paper's recoverable experiments report the mean after dropping the
    top 5 % (§5.4.2). *)
val lat_trimmed_ms : t -> float

(** [series r ~window ~till] delivery throughput per window, Mbps. *)
val series : t -> window:float -> till:float -> (float * float) list

(** CDF sketch of latencies in ms. *)
val lat_cdf : t -> points:int -> (float * float) list
