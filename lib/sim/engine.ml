(* Discrete-event engine over the timing wheel: events fire in (time,
   order) order, and the steady-state schedule/fire path allocates
   nothing. *)

type t = {
  mutable seq : int;
  (* The clock lives in a float array so the wheel's firing loop can
     update it without boxing. *)
  now_cell : float array;
  w : Wheel.t;
}

type handle = int

let create () = { seq = 0; now_cell = Array.make 1 0.0; w = Wheel.create () }

let now t = t.now_cell.(0)

(* Read-only exposure of the clock cell: hot callers (simnet) read the
   current time without the boxed float that [now] returns. *)
let now_cell t = t.now_cell

let ticks_per_second = Wheel.ticks_per_second

let tick_scale = float_of_int ticks_per_second
let tick_width = 1.0 /. tick_scale

(* Duration -> ticks, rounded to nearest so quantization error stays
   within half a tick (~0.48 us) in both directions. *)
let ticks_of_duration d =
  let x = (d *. tick_scale) +. 0.5 in
  if x <= 0.0 then 0 else int_of_float x

(* Absolute time -> tick grid, truncating: the tick whose window contains
   [ts].  Grid-aligned times (every event fired through the tick path)
   round-trip exactly. *)
let ticks_of_time ts = if ts <= 0.0 then 0 else int_of_float (ts *. tick_scale)

let time_of_ticks tk = float_of_int tk *. tick_width

let at t ~time f =
  let nw = Array.unsafe_get t.now_cell 0 in
  let time = if time < nw then nw else time in
  t.seq <- t.seq + 1;
  Wheel.add t.w ~time ~order:t.seq f

let schedule t ~delay f =
  let delay = if delay < 0.0 then 0.0 else delay in
  at t ~time:(Array.unsafe_get t.now_cell 0 +. delay) f

let schedule_ticks t ~ticks f =
  let ticks = if ticks < 0 then 0 else ticks in
  t.seq <- t.seq + 1;
  Wheel.add_ticks t.w ~now:t.now_cell ~ticks ~order:t.seq f

let at_ticks t ~tick f =
  t.seq <- t.seq + 1;
  Wheel.add_abs t.w ~now:t.now_cell ~tick ~order:t.seq f

let cancel t h = ignore (Wheel.cancel t.w h)

let pending t = Wheel.live t.w

let default_max = 200_000_000

let run_until t ~until ~max_events ~who =
  try ignore (Wheel.run t.w ~now:t.now_cell ~until ~max_events)
  with Wheel.Budget -> failwith (who ^ ": event budget exhausted")

let run ?(max_events = default_max) t ~until =
  run_until t ~until ~max_events ~who:"Engine.run";
  if t.now_cell.(0) < until then t.now_cell.(0) <- until

let run_all ?(max_events = default_max) t =
  run_until t ~until:infinity ~max_events ~who:"Engine.run_all"
