(** Deterministic, splittable pseudo-random number generator (splitmix64).

    Every stochastic component of the simulator owns its own stream obtained
    with {!split}, so adding a new component never perturbs the random
    sequence seen by existing ones — experiments stay reproducible as the
    system grows. *)

type t

(** [create seed] is a fresh generator. Equal seeds give equal streams. *)
val create : int -> t

(** [split t] derives an independent stream from [t] (advances [t]). *)
val split : t -> t

(** [int t n] is uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)
val int : t -> int -> int

(** [float t x] is uniform in [\[0, x)]. *)
val float : t -> float -> float

(** [bits53 t] is uniform in [\[0, 2{^53})]: the draw behind {!float},
    which equals [x *. float_of_int (bits53 t) /. 2{^53}].  It returns an
    immediate int, so a hot caller that scales it locally allocates
    nothing, where a float returned across modules is boxed. *)
val bits53 : t -> int

(** [bool t p] is [true] with probability [p]. *)
val bool : t -> float -> bool

(** [exponential t ~mean] samples an exponential distribution. *)
val exponential : t -> mean:float -> float

(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)
val uniform : t -> float -> float -> float

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** Zipf-distributed integers over [{0, ..., n-1}] with exponent [s];
    the distribution table is precomputed at creation. *)
module Zipf : sig
  type gen

  val create : t -> n:int -> s:float -> gen

  (** [draw g] samples a rank; rank 0 is the most popular. *)
  val draw : gen -> int
end
