(* The splitmix64 state lives in an 8-byte buffer rather than a mutable
   [int64] field: a field would box every new state, whereas
   [Bytes.get/set_int64_ne] let the arithmetic below stay in registers.
   test/test_sim.ml pins a digest of the stream. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (bits64 t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny versus 2^63. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (bits64 t) 1) (Int64.of_int n))

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

let[@inline] float t x = x *. float_of_int (bits53 t) /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u = 0.0 then 1e-300 else u in
  -.mean *. log u

let uniform t lo hi = lo +. float t (hi -. lo)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

module Zipf = struct
  type gen = { rng : t; cdf : float array }

  let create rng ~n ~s =
    if n <= 0 then invalid_arg "Rng.Zipf.create: n must be positive";
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
      cdf.(i) <- !acc
    done;
    let total = !acc in
    for i = 0 to n - 1 do
      cdf.(i) <- cdf.(i) /. total
    done;
    { rng; cdf }

  let draw g =
    let u = float g.rng 1.0 in
    (* Binary search for the first index whose cdf exceeds u. *)
    let lo = ref 0 and hi = ref (Array.length g.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if g.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
end
