(** Client-side measurement: completed commands per second and response
    time, as reported in the Chapter 4/6 figures. *)

type t

val create : Sim.Engine.t -> t

(** [command t ~born ~bytes] records a completed command. *)
val command : t -> born:float -> bytes:int -> unit

val completed : t -> int

(** Kilo-commands per second over a window (the paper's Kcps). *)
val kcps : t -> from:float -> till:float -> float

val mbps : t -> from:float -> till:float -> float
val lat_mean_ms : t -> float
