(* Streaming, constant-memory measurement accumulators.

   Everything here sits on the innermost loop of the simulator: every
   packet, disk write and command funnels through [Rate]/[Busy]/[Latency]
   across the protocol libraries and the bench harness.  The accumulators
   therefore keep fixed-width time-bucket rings -- O(buckets) memory and
   query cost, O(1) amortised per sample -- instead of retaining every
   sample, which previously made [Rate] O(n) per query and unbounded in
   memory. *)

let default_bucket_width = 0.1
let default_buckets = 1024 (* ~102 s of history at the default width *)

(* Bucket index of [time].  The epsilon absorbs float-division noise so a
   sample recorded exactly on a bucket edge lands in the bucket that
   starts there (0.5 /. 0.1 evaluates below 5.0 in binary floats). *)
let bucket_index ~width time =
  int_of_float (floor ((time /. width) +. 1e-9))

(* Shared ring bookkeeping: which contiguous range of absolute bucket
   indices [first, last] is currently retained, and where each lives in a
   circular store of [cap] slots owned by the caller. *)
module Ring = struct
  type t = {
    width : float;
    cap : int;
    mutable first : int; (* lowest retained bucket index *)
    mutable last : int;  (* highest bucket index written; -1 when empty *)
  }

  let create ~width ~cap = { width; cap; first = 0; last = -1 }

  let slot t b = b mod t.cap

  let bucket t time = Stdlib.max 0 (bucket_index ~width:t.width time)

  (* Make bucket [b] addressable, recycling (via [clear]) any slots whose
     previous tenants fall off the horizon.  [-1] means [b] is older
     than the retained window: the caller should drop the per-bucket part
     (lifetime totals are kept separately).  Returns a bare int (not an
     option) so the per-sample path allocates nothing; callers pass a
     preallocated [clear] closure for the same reason. *)
  let locate_i t b ~clear =
    if t.last < 0 then begin
      t.first <- b;
      t.last <- b;
      let s = slot t b in
      clear s;
      s
    end
    else if b < t.first then -1
    else begin
      if b > t.last then begin
        let lo = Stdlib.max (t.last + 1) (b - t.cap + 1) in
        for i = lo to b do
          clear (slot t i)
        done;
        t.last <- b;
        if b - t.first >= t.cap then t.first <- b - t.cap + 1
      end;
      slot t b
    end

  (* [fold_window t ~from ~till f acc] folds [f acc slot covered_fraction]
     over the retained buckets intersecting [from, till).  Edge buckets
     contribute the fraction of the bucket the window covers, so
     bucket-aligned windows are exact and unaligned ones assume uniform
     density within the edge buckets. *)
  let fold_window t ~from ~till f acc =
    if t.last < 0 || till <= from then acc
    else begin
      let b0 = Stdlib.max t.first (bucket t from) in
      let b1 = Stdlib.min t.last (bucket t till) in
      let acc = ref acc in
      for b = b0 to b1 do
        let bs = float_of_int b *. t.width in
        let be = bs +. t.width in
        let lo = Stdlib.max from bs and hi = Stdlib.min till be in
        if hi > lo then begin
          let frac = (hi -. lo) /. t.width in
          let frac = if frac > 1.0 then 1.0 else frac in
          acc := f !acc (slot t b) frac
        end
      done;
      !acc
    end
end

module Rate = struct
  type t = {
    ring : Ring.t;
    ev : int array; (* events per retained bucket *)
    by : int array; (* bytes per retained bucket *)
    mutable events : int;
    mutable bytes : int;
    (* Preallocated slot-recycling closure: [Ring.locate_i] takes it on
       every sample, so building it per call would put one closure per
       packet on the minor heap. *)
    clear : int -> unit;
  }

  let create ?(bucket_width = default_bucket_width) ?(buckets = default_buckets) () =
    let cap = Stdlib.max 1 buckets in
    let ev = Array.make cap 0 in
    let by = Array.make cap 0 in
    { ring = Ring.create ~width:bucket_width ~cap;
      ev;
      by;
      events = 0;
      bytes = 0;
      clear =
        (fun s ->
          ev.(s) <- 0;
          by.(s) <- 0) }

  let add t ~now ~bytes =
    t.events <- t.events + 1;
    t.bytes <- t.bytes + bytes;
    let b = Ring.bucket t.ring now in
    (* -1 = older than the retained horizon: lifetime totals only *)
    let s = Ring.locate_i t.ring b ~clear:t.clear in
    if s >= 0 then begin
      t.ev.(s) <- t.ev.(s) + 1;
      t.by.(s) <- t.by.(s) + bytes
    end

  (* Same accounting as [add], with the timestamp read out of the engine
     clock cell: an unboxed load, so the packet path records rates with
     zero allocation. *)
  let add_cell t ~now_cell ~bytes =
    t.events <- t.events + 1;
    t.bytes <- t.bytes + bytes;
    let now = Array.unsafe_get (now_cell : float array) 0 in
    let b = bucket_index ~width:t.ring.Ring.width now in
    let b = if b < 0 then 0 else b in
    let s = Ring.locate_i t.ring b ~clear:t.clear in
    if s >= 0 then begin
      t.ev.(s) <- t.ev.(s) + 1;
      t.by.(s) <- t.by.(s) + bytes
    end

  let events t = t.events
  let bytes t = t.bytes

  let in_window t ~from ~till =
    Ring.fold_window t.ring ~from ~till
      (fun (n, b) s frac ->
        (n +. (frac *. float_of_int t.ev.(s)), b +. (frac *. float_of_int t.by.(s))))
      (0.0, 0.0)

  let mbps t ~from ~till =
    let span = till -. from in
    if span <= 0.0 then 0.0
    else
      let _, b = in_window t ~from ~till in
      b *. 8.0 /. span /. 1e6

  let events_per_sec t ~from ~till =
    let span = till -. from in
    if span <= 0.0 then 0.0 else fst (in_window t ~from ~till) /. span

  let series t ~window ~till =
    let nbuckets = Stdlib.max 1 (int_of_float (ceil (till /. window))) in
    List.init nbuckets (fun i ->
        let ws = window *. float_of_int i in
        let we = window *. float_of_int (i + 1) in
        let _, b = in_window t ~from:ws ~till:(Stdlib.min we till) in
        (we, b *. 8.0 /. window /. 1e6))
end

module Latency = struct
  type t = {
    reservoir : int; (* 0 = keep every sample *)
    mutable data : float array;
    mutable len : int;
    mutable n : int; (* finite samples recorded (NaN adds are dropped) *)
    mutable nans : int;
    mutable sum : float;
    mutable max_s : float;
    mutable cache : float array; (* sorted copy, rebuilt lazily per query generation *)
    mutable dirty : bool;
    mutable seed : int; (* deterministic stream for reservoir replacement *)
  }

  let create ?(reservoir = 0) () =
    { reservoir = Stdlib.max 0 reservoir;
      data = [||];
      len = 0;
      n = 0;
      nans = 0;
      sum = 0.0;
      max_s = neg_infinity;
      cache = [||];
      dirty = false;
      seed = 0x2545F491 }

  (* 48-bit LCG (java.util.Random constants); only used to pick reservoir
     victims, so statistical quality requirements are mild but determinism
     matters. *)
  let rand_below t n =
    t.seed <- ((t.seed * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    (t.seed lsr 17) mod n

  let append t x =
    if t.len = Array.length t.data then begin
      let ncap = Stdlib.max 64 (2 * t.len) in
      let nd = Array.make ncap 0.0 in
      Array.blit t.data 0 nd 0 t.len;
      t.data <- nd
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let add t x =
    if Float.is_nan x then t.nans <- t.nans + 1
    else begin
      t.n <- t.n + 1;
      t.sum <- t.sum +. x;
      if x > t.max_s then t.max_s <- x;
      if t.reservoir = 0 || t.len < t.reservoir then append t x
      else begin
        (* Algorithm R: after the reservoir fills, the i-th sample
           replaces a random slot with probability reservoir/i. *)
        let j = rand_below t t.n in
        if j < t.reservoir then t.data.(j) <- x
      end;
      t.dirty <- true
    end

  let count t = t.n
  let dropped_nan t = t.nans
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
  let max t = if t.n = 0 then 0.0 else t.max_s

  let sorted t =
    if t.dirty || Array.length t.cache <> t.len then begin
      let a = Array.sub t.data 0 t.len in
      Array.sort Float.compare a;
      t.cache <- a;
      t.dirty <- false
    end;
    t.cache

  let percentile t p =
    if t.len = 0 then 0.0
    else begin
      let p = if Float.is_nan p then 0.0 else Stdlib.min 1.0 (Stdlib.max 0.0 p) in
      let a = sorted t in
      let idx = int_of_float (p *. float_of_int (t.len - 1)) in
      a.(Stdlib.max 0 (Stdlib.min (t.len - 1) idx))
    end

  let trimmed_mean t ~drop_top =
    if t.len = 0 then 0.0
    else begin
      let a = sorted t in
      let keep =
        Stdlib.max 1 (int_of_float (float_of_int t.len *. (1.0 -. drop_top)))
      in
      let keep = Stdlib.min t.len keep in
      let sum = ref 0.0 in
      for i = 0 to keep - 1 do
        sum := !sum +. a.(i)
      done;
      !sum /. float_of_int keep
    end

  let cdf t ~points =
    if t.len = 0 then []
    else begin
      let a = sorted t in
      List.init points (fun i ->
          let frac = float_of_int (i + 1) /. float_of_int points in
          let idx =
            Stdlib.min (t.len - 1) (int_of_float (frac *. float_of_int (t.len - 1)))
          in
          (a.(idx), frac))
    end
end

module Busy = struct
  (* The float scalars live in a flat float array rather than mutable
     record fields: in a mixed record every write to a mutable float
     field boxes, and [add] runs per resource acquisition on the packet
     path. Slots: 0 total, 1 cursor (assumed start of the next
     un-timestamped add), 2-3 the (start, dur) arguments of the pending [record_span] call. *)
  type t = {
    ring : Ring.t;
    per_bucket : float array; (* busy seconds per retained bucket *)
    fl : float array;
    clear : int -> unit; (* preallocated, see {!Rate.t} *)
  }

  let total_i = 0
  let cursor_i = 1
  let span_start_i = 2
  let span_dur_i = 3

  let create ?(bucket_width = default_bucket_width) ?(buckets = default_buckets) () =
    let cap = Stdlib.max 1 buckets in
    let per_bucket = Array.make cap 0.0 in
    { ring = Ring.create ~width:bucket_width ~cap;
      per_bucket;
      fl = Array.make 4 0.0;
      clear = (fun s -> per_bucket.(s) <- 0.0) }

  (* Record the busy interval [fl.(2), fl.(2) +. fl.(3)), split exactly
     across the buckets it spans.  The interval arrives through the
     scratch slots of [fl] so no boxed float crosses the call; [Ring.bucket]
     is inlined by hand and the compares are monomorphic, because
     [Stdlib.max]/[min] box both arguments through the polymorphic call.
     Runs once per resource acquisition on the packet path, so it must
     not allocate. *)
  let record_span t =
    let start = Array.unsafe_get t.fl span_start_i in
    let dur = Array.unsafe_get t.fl span_dur_i in
    let fin = start +. dur in
    let width = t.ring.Ring.width in
    let b0 = int_of_float (floor ((start /. width) +. 1e-9)) in
    let b0 = if b0 < 0 then 0 else b0 in
    let b1 = int_of_float (floor ((fin /. width) +. 1e-9)) in
    let b1 = if b1 < 0 then 0 else b1 in
    for b = b0 to b1 do
      let bs = float_of_int b *. width in
      let be = bs +. width in
      let lo = if start > bs then start else bs
      and hi = if fin < be then fin else be in
      if hi > lo then begin
        let s = Ring.locate_i t.ring b ~clear:t.clear in
        if s >= 0 then t.per_bucket.(s) <- t.per_bucket.(s) +. (hi -. lo)
      end
    done

  (* Every float is a local or an array slot.  [@@inline] keeps [add] and
     [add_tk] allocation-free; a caller in another compilation unit boxes
     [now] (2 words) unless it has cross-module inlining (dune's dev
     profile builds with -opaque), against 4 for [add ~at]'s [Some] and
     box. *)
  let add_at t ~now dur =
    let fl = t.fl in
    Array.unsafe_set fl total_i (Array.unsafe_get fl total_i +. dur);
    if dur > 0.0 then begin
      Array.unsafe_set fl span_start_i now;
      Array.unsafe_set fl span_dur_i dur;
      record_span t;
      let fin = now +. dur in
      if fin > Array.unsafe_get fl cursor_i then Array.unsafe_set fl cursor_i fin
    end
  [@@inline]

  let add ?at t dur =
    let now = match at with Some s -> s | None -> t.fl.(cursor_i) in
    add_at t ~now dur

  (* Tick-grid variant with an int-only signature: identical accounting
     to [add_at ~now:(start_tk / tps) (dur_tk / tps)], so resource
     acquisition on the packet path records busy time with zero
     allocation. *)
  let ticks_per_second_f = float_of_int Wheel.ticks_per_second

  let add_tk t ~start_tk ~dur_tk =
    add_at t
      ~now:(float_of_int start_tk /. ticks_per_second_f)
      (float_of_int dur_tk /. ticks_per_second_f)

  let total t = t.fl.(total_i)

  let busy_in t ~from ~till =
    Ring.fold_window t.ring ~from ~till
      (fun acc s frac -> acc +. (frac *. t.per_bucket.(s)))
      0.0

  let utilization t ~from ~till =
    let span = till -. from in
    if span <= 0.0 then 0.0
    else
      let pct = busy_in t ~from ~till /. span *. 100.0 in
      Stdlib.min 100.0 (Stdlib.max 0.0 pct)
end

module Snapshot = struct
  type t = {
    label : string;
    from_ : float;
    till : float;
    events : int;
    bytes : int;
    mbps : float;
    events_per_sec : float;
    lat_count : int;
    lat_mean : float;
    lat_p50 : float;
    lat_p95 : float;
    lat_p99 : float;
    lat_max : float;
    cpu_pct : float;
    counters : (string * int) list;
  }

  let make ?rate ?latency ?busy ?(counters = []) ~label ~from ~till () =
    let events, bytes, mbps, eps =
      match rate with
      | None -> (0, 0, 0.0, 0.0)
      | Some r ->
          ( Rate.events r,
            Rate.bytes r,
            Rate.mbps r ~from ~till,
            Rate.events_per_sec r ~from ~till )
    in
    let lat_count, lat_mean, lat_p50, lat_p95, lat_p99, lat_max =
      match latency with
      | None -> (0, 0.0, 0.0, 0.0, 0.0, 0.0)
      | Some l ->
          ( Latency.count l,
            Latency.mean l,
            Latency.percentile l 0.5,
            Latency.percentile l 0.95,
            Latency.percentile l 0.99,
            Latency.max l )
    in
    let cpu_pct =
      match busy with None -> 0.0 | Some b -> Busy.utilization b ~from ~till
    in
    { label; from_ = from; till; events; bytes; mbps; events_per_sec = eps;
      lat_count; lat_mean; lat_p50; lat_p95; lat_p99; lat_max; cpu_pct; counters }

  (* Most figures print already-reduced numbers (a throughput, a latency
     average); [scalar] records such a row without the raw accumulators. *)
  let scalar ?(mbps = 0.0) ?(events_per_sec = 0.0) ?(lat_mean = 0.0) ?(cpu_pct = 0.0)
      ?(counters = []) ~label () =
    { label; from_ = 0.0; till = 0.0; events = 0; bytes = 0; mbps; events_per_sec;
      lat_count = 0; lat_mean; lat_p50 = 0.0; lat_p95 = 0.0; lat_p99 = 0.0; lat_max = 0.0;
      cpu_pct; counters }

  let json_number f =
    if Float.is_nan f || Float.abs f = infinity then "null"
    else Printf.sprintf "%.6g" f

  let to_json t =
    let b = Buffer.create 256 in
    let field name v = Buffer.add_string b (Printf.sprintf "%S:%s" name v) in
    Buffer.add_char b '{';
    field "label" (Printf.sprintf "%S" t.label);
    Buffer.add_char b ',';
    field "from" (json_number t.from_);
    Buffer.add_char b ',';
    field "till" (json_number t.till);
    Buffer.add_char b ',';
    field "events" (string_of_int t.events);
    Buffer.add_char b ',';
    field "bytes" (string_of_int t.bytes);
    Buffer.add_char b ',';
    field "mbps" (json_number t.mbps);
    Buffer.add_char b ',';
    field "events_per_sec" (json_number t.events_per_sec);
    Buffer.add_char b ',';
    field "lat_count" (string_of_int t.lat_count);
    Buffer.add_char b ',';
    field "lat_mean" (json_number t.lat_mean);
    Buffer.add_char b ',';
    field "lat_p50" (json_number t.lat_p50);
    Buffer.add_char b ',';
    field "lat_p95" (json_number t.lat_p95);
    Buffer.add_char b ',';
    field "lat_p99" (json_number t.lat_p99);
    Buffer.add_char b ',';
    field "lat_max" (json_number t.lat_max);
    Buffer.add_char b ',';
    field "cpu_pct" (json_number t.cpu_pct);
    Buffer.add_char b ',';
    Buffer.add_string b "\"counters\":{";
    List.iteri
      (fun i (name, n) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "%S:%d" name n))
      t.counters;
    Buffer.add_char b '}';
    Buffer.add_char b '}';
    Buffer.contents b
end
