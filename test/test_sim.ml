(* Unit and property tests for the simulation substrate (lib/sim). *)

open Sim

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:0.3 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:0.1 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:0.2 (fun () -> log := 2 :: !log));
  Engine.run_all e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 0.3 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run_all e;
  Alcotest.(check (list int)) "fifo at equal time" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:0.5 (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run_all e;
  Alcotest.(check bool) "cancelled does not fire" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:3.0 (fun () -> incr fired));
  Engine.run e ~until:2.0;
  Alcotest.(check int) "only events before horizon" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock moved to horizon" 2.0 (Engine.now e)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:0.1 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:0.1 (fun () -> log := "inner" :: !log))));
  Engine.run_all e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, n) ->
      let r = Rng.create seed in
      let x = Rng.int r n in
      x >= 0 && x < n)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float stays in bounds" ~count:500 QCheck.small_int (fun seed ->
      let r = Rng.create seed in
      let x = Rng.float r 3.5 in
      x >= 0.0 && x < 3.5)

let test_rng_bool_bias () =
  let r = Rng.create 11 in
  let n = 20000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool r 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "bernoulli(0.3) near 0.3" true (frac > 0.27 && frac < 0.33)

let test_rng_exponential_mean () =
  let r = Rng.create 13 in
  let n = 50000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean near 2.0" true (mean > 1.9 && mean < 2.1)

let test_zipf_skew () =
  let r = Rng.create 17 in
  let g = Rng.Zipf.create r ~n:100 ~s:1.0 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20000 do
    let i = Rng.Zipf.draw g in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "rank 10 beats rank 90" true (counts.(10) > counts.(90))

(* The splitmix64 stream, pinned: seed 7, the first 10^5 outputs of each
   draw, each from a fresh generator ([split] children contribute one
   [int] draw each).  Any change to the state layout or the arithmetic
   must keep every seeded experiment byte-identical, and this digest
   catches a drift long before a golden figure would. *)
let rng_stream_digest () =
  let n = 100_000 in
  let b = Buffer.create (n * 16) in
  let each f =
    let r = Rng.create 7 in
    for _ = 1 to n do
      Buffer.add_string b (f r);
      Buffer.add_char b ' '
    done
  in
  each (fun r -> string_of_int (Rng.int r 1_000_003));
  each (fun r -> Printf.sprintf "%h" (Rng.float r 3.5));
  each (fun r -> if Rng.bool r 0.3 then "t" else "f");
  each (fun r -> Printf.sprintf "%h" (Rng.exponential r ~mean:2.0));
  each (fun r -> Printf.sprintf "%h" (Rng.uniform r (-1.0) 4.0));
  (let g = Rng.Zipf.create (Rng.create 7) ~n:1000 ~s:0.99 in
   for _ = 1 to n do
     Buffer.add_string b (string_of_int (Rng.Zipf.draw g));
     Buffer.add_char b ' '
   done);
  each (fun r -> string_of_int (Rng.int (Rng.split r) max_int));
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_rng_stream_pinned () =
  Alcotest.(check string) "splitmix64 stream digest, seed 7"
    "b96d8ed78bc09a05a4642fb74378f28d" (rng_stream_digest ())

(* Minor words per draw: the state stays unboxed, so an int draw allocates
   nothing and a float draw only the box of its result. *)
let test_rng_draw_allocation () =
  let r = Rng.create 7 in
  let g = Rng.Zipf.create (Rng.create 7) ~n:1000 ~s:0.99 in
  let per_draw f =
    f ();
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let zero name f =
    Alcotest.(check (float 0.0)) (name ^ " allocates nothing") 0.0 (per_draw f)
  in
  zero "Rng.int" (fun () -> ignore (Sys.opaque_identity (Rng.int r 1000)));
  zero "Rng.bits53" (fun () -> ignore (Sys.opaque_identity (Rng.bits53 r)));
  zero "Zipf.draw" (fun () -> ignore (Sys.opaque_identity (Rng.Zipf.draw g)));
  let f = per_draw (fun () -> ignore (Sys.opaque_identity (Rng.float r 1.0))) in
  Alcotest.(check bool) (Printf.sprintf "Rng.float: %.2f words (<= 2)" f) true (f <= 2.0)

let test_rate_mbps () =
  let r = Stats.Rate.create () in
  (* 10 events of 125000 bytes over 1 second = 10 Mbps. *)
  for i = 0 to 9 do
    Stats.Rate.add r ~now:(0.1 *. float_of_int i) ~bytes:125_000
  done;
  Alcotest.(check (float 1e-6)) "mbps" 10.0 (Stats.Rate.mbps r ~from:0.0 ~till:1.0);
  Alcotest.(check (float 1e-6)) "events/s" 10.0 (Stats.Rate.events_per_sec r ~from:0.0 ~till:1.0)

let test_rate_series () =
  let r = Stats.Rate.create () in
  Stats.Rate.add r ~now:0.5 ~bytes:125_000;
  Stats.Rate.add r ~now:1.5 ~bytes:250_000;
  let s = Stats.Rate.series r ~window:1.0 ~till:2.0 in
  match s with
  | [ (_, a); (_, b) ] ->
      Alcotest.(check (float 1e-6)) "bucket 1" 1.0 a;
      Alcotest.(check (float 1e-6)) "bucket 2" 2.0 b
  | _ -> Alcotest.fail "expected two buckets"

let test_latency_percentiles () =
  let l = Stats.Latency.create () in
  for i = 1 to 100 do
    Stats.Latency.add l (float_of_int i)
  done;
  Alcotest.(check (float 1e-6)) "mean" 50.5 (Stats.Latency.mean l);
  Alcotest.(check bool) "p50 near middle" true (abs_float (Stats.Latency.percentile l 0.5 -. 50.0) <= 1.0);
  Alcotest.(check (float 1e-6)) "max" 100.0 (Stats.Latency.max l)

let test_latency_trimmed () =
  let l = Stats.Latency.create () in
  List.iter (Stats.Latency.add l) [ 1.0; 1.0; 1.0; 1.0; 100.0 ];
  let tm = Stats.Latency.trimmed_mean l ~drop_top:0.2 in
  Alcotest.(check (float 1e-6)) "outlier dropped" 1.0 tm

let test_busy_utilization () =
  let b = Stats.Busy.create () in
  Stats.Busy.add b 0.25;
  Stats.Busy.add b 0.25;
  Alcotest.(check (float 1e-6)) "50%" 50.0 (Stats.Busy.utilization b ~from:0.0 ~till:1.0)

let test_busy_windowed_utilization () =
  let b = Stats.Busy.create () in
  (* 0.6 s of work, all inside [0, 1). *)
  Stats.Busy.add ~at:0.2 b 0.3;
  Stats.Busy.add ~at:0.6 b 0.3;
  Alcotest.(check (float 1e-6)) "busy window" 60.0 (Stats.Busy.utilization b ~from:0.0 ~till:1.0);
  (* The old code divided lifetime busy time by the span, reporting 60%
     here instead of 0%. *)
  Alcotest.(check (float 1e-6)) "idle window" 0.0 (Stats.Busy.utilization b ~from:1.0 ~till:2.0);
  Stats.Busy.add ~at:2.2 b 0.5;
  Alcotest.(check (float 1e-6)) "later window" 50.0 (Stats.Busy.utilization b ~from:2.0 ~till:3.0);
  Alcotest.(check (float 1e-6)) "total still lifetime" 1.1 (Stats.Busy.total b)

let test_busy_interval_straddles_window () =
  let b = Stats.Busy.create () in
  (* [0.95, 1.05): half before the window edge, half after. *)
  Stats.Busy.add ~at:0.95 b 0.1;
  Alcotest.(check (float 1e-6)) "first half" 5.0 (Stats.Busy.utilization b ~from:0.0 ~till:1.0);
  Alcotest.(check (float 1e-6)) "second half" 5.0 (Stats.Busy.utilization b ~from:1.0 ~till:2.0)

let test_latency_edge_cases () =
  let l = Stats.Latency.create () in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Stats.Latency.percentile l 0.5);
  Alcotest.(check (float 0.0)) "empty max" 0.0 (Stats.Latency.max l);
  Stats.Latency.add l 7.0;
  Alcotest.(check (float 1e-9)) "n=1 p0" 7.0 (Stats.Latency.percentile l 0.0);
  Alcotest.(check (float 1e-9)) "n=1 p1" 7.0 (Stats.Latency.percentile l 1.0);
  Stats.Latency.add l Float.nan;
  Alcotest.(check int) "NaN dropped from count" 1 (Stats.Latency.count l);
  Alcotest.(check int) "NaN drop recorded" 1 (Stats.Latency.dropped_nan l);
  Alcotest.(check (float 1e-9)) "mean unaffected by NaN" 7.0 (Stats.Latency.mean l);
  Stats.Latency.add l 1.0;
  Stats.Latency.add l 1.0;
  Alcotest.(check (float 1e-9)) "p0 is min" 1.0 (Stats.Latency.percentile l 0.0);
  Alcotest.(check (float 1e-9)) "p1 is max" 7.0 (Stats.Latency.percentile l 1.0);
  Alcotest.(check (float 1e-9)) "p out of range clamped" 7.0 (Stats.Latency.percentile l 1.5);
  Alcotest.(check (float 1e-9)) "NaN p treated as 0" 1.0 (Stats.Latency.percentile l Float.nan)

let test_latency_reservoir () =
  let l = Stats.Latency.create ~reservoir:128 () in
  for i = 1 to 100_000 do
    Stats.Latency.add l (float_of_int i)
  done;
  Alcotest.(check int) "count exact" 100_000 (Stats.Latency.count l);
  Alcotest.(check (float 1e-3)) "mean exact" 50000.5 (Stats.Latency.mean l);
  Alcotest.(check (float 1e-9)) "max exact" 100000.0 (Stats.Latency.max l);
  let p50 = Stats.Latency.percentile l 0.5 in
  Alcotest.(check bool) "p50 estimate in range" true (p50 > 25000.0 && p50 < 75000.0);
  Alcotest.(check bool) "reservoir bounds memory" true
    (Obj.reachable_words (Obj.repr l) < 4096)

let test_rate_bucket_boundary () =
  let r = Stats.Rate.create () in
  (* Exactly on a bucket edge: must land in the bucket starting at 0.5. *)
  Stats.Rate.add r ~now:0.5 ~bytes:1000;
  Alcotest.(check (float 1e-9)) "excluded before the edge" 0.0
    (Stats.Rate.mbps r ~from:0.0 ~till:0.5);
  Alcotest.(check (float 1e-6)) "included from the edge" 0.016
    (Stats.Rate.mbps r ~from:0.5 ~till:1.0);
  Alcotest.(check (float 1e-6)) "events prorated exactly" 2.0
    (Stats.Rate.events_per_sec r ~from:0.5 ~till:1.0)

let test_rate_bounded_memory () =
  let r = Stats.Rate.create () in
  (* 1M samples over 1000 s: far beyond the ring horizon. *)
  for i = 0 to 999_999 do
    Stats.Rate.add r ~now:(0.001 *. float_of_int i) ~bytes:100
  done;
  Alcotest.(check int) "lifetime totals exact" 1_000_000 (Stats.Rate.events r);
  Alcotest.(check int) "bytes exact" 100_000_000 (Stats.Rate.bytes r);
  (* Recent windows stay queryable after eviction of old buckets. *)
  Alcotest.(check (float 1e-6)) "recent window rate" 0.8
    (Stats.Rate.mbps r ~from:999.0 ~till:1000.0);
  Alcotest.(check bool) "memory is O(buckets), not O(samples)" true
    (Obj.reachable_words (Obj.repr r) < 50_000)

let test_engine_pending_cancel () =
  let e = Engine.create () in
  let h1 = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Engine.cancel e h1;
  Alcotest.(check int) "cancel uncounts immediately" 1 (Engine.pending e);
  Engine.cancel e h1;
  Alcotest.(check int) "cancel idempotent" 1 (Engine.pending e);
  Engine.run e ~until:2.0;
  Alcotest.(check int) "still one pending after horizon" 1 (Engine.pending e)

(* The old loop counted (`incr fired`) before checking (`> max_events`),
   so max_events + 1 events fired before the guard tripped.  Exactly
   [max_events] may fire; one more live event must trip it. *)
let test_engine_budget_boundary () =
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired))
  done;
  Engine.run_all ~max_events:5 e;
  Alcotest.(check int) "exact budget fires all" 5 !fired;
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 6 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired))
  done;
  Alcotest.check_raises "budget + 1 trips"
    (Failure "Engine.run_all: event budget exhausted") (fun () ->
      Engine.run_all ~max_events:5 e);
  Alcotest.(check int) "budget events fired before the trip" 5 !fired

(* Cancelled records drain for free: they used to be charged against the
   run budget, making long failure-detector runs trip spuriously. *)
let test_engine_budget_ignores_cancelled () =
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    let d = 0.1 *. float_of_int i in
    let h = Engine.schedule e ~delay:d (fun () -> ()) in
    ignore (Engine.schedule e ~delay:d (fun () -> incr fired));
    Engine.cancel e h
  done;
  Engine.run_all ~max_events:10 e;
  Alcotest.(check int) "live events all fired within budget" 10 !fired

(* Cancel-without-fire workloads must not accumulate dead records: the
   wheel sweeps them once they are half the queue. *)
let test_engine_cancel_memory_bound () =
  let e = Engine.create () in
  for _ = 1 to 200_000 do
    let h = Engine.schedule e ~delay:1.0 (fun () -> ()) in
    Engine.cancel e h
  done;
  Alcotest.(check int) "no live events" 0 (Engine.pending e);
  Alcotest.(check bool) "cancelled records are swept" true
    (Obj.reachable_words (Obj.repr e) < 100_000)

(* [run ~until] can park the wheel cursor far ahead of the clock; a
   later schedule "in the past" relative to the cursor must still fire,
   and in time order, exactly as on the reference queue — including an
   event armed from a callback between events of one far-level window,
   and a same-time pair in scheduling order. *)
let test_engine_past_schedule_after_jump () =
  let program (q : Test_engine_equiv.ops) =
    let log = ref [] in
    let record id () = log := (id, q.now ()) :: !log in
    ignore
      (q.schedule ~delay:100.0 (fun () ->
           record 100 ();
           ignore (q.schedule ~delay:0.25 (record 101))));
    ignore (q.schedule ~delay:100.5 (record 102));
    ignore (q.schedule ~delay:100.5 (record 103));
    q.run ~until:2.0;
    ignore (q.schedule ~delay:1.0 (record 3));
    q.run_all ();
    List.rev !log
  in
  let w, r = Test_engine_equiv.both program in
  Alcotest.(check (list (pair int (float 0.0)))) "late schedule fires first"
    [ (3, 3.0); (100, 100.0); (101, 100.25); (102, 100.5); (103, 100.5) ] w;
  Alcotest.(check (list (pair int (float 0.0)))) "wheel matches the reference" r w

let test_snapshot_json () =
  let r = Stats.Rate.create () in
  let l = Stats.Latency.create () in
  let b = Stats.Busy.create () in
  Stats.Rate.add r ~now:0.25 ~bytes:125_000;
  Stats.Latency.add l 0.004;
  Stats.Busy.add ~at:0.1 b 0.2;
  let s = Stats.Snapshot.make ~rate:r ~latency:l ~busy:b ~label:"t" ~from:0.0 ~till:1.0 () in
  Alcotest.(check (float 1e-6)) "snapshot mbps" 1.0 s.Stats.Snapshot.mbps;
  Alcotest.(check (float 1e-6)) "snapshot cpu" 20.0 s.Stats.Snapshot.cpu_pct;
  let j = Stats.Snapshot.to_json s in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" needle) true
        (Astring_contains.contains j needle))
    [ {|"label":"t"|}; {|"events":1|}; {|"bytes":125000|}; {|"lat_count":1|}; {|"cpu_pct":20|} ]

let suite =
  [     Alcotest.test_case "engine: time order" `Quick test_engine_order;
    Alcotest.test_case "engine: FIFO at equal times" `Quick test_engine_same_time_fifo;
    Alcotest.test_case "engine: cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine: run until horizon" `Quick test_engine_until;
    Alcotest.test_case "engine: nested scheduling" `Quick test_engine_nested_schedule;
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    QCheck_alcotest.to_alcotest prop_rng_int_bounds;
    QCheck_alcotest.to_alcotest prop_rng_float_bounds;
    Alcotest.test_case "rng: bernoulli bias" `Quick test_rng_bool_bias;
    Alcotest.test_case "rng: exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng: zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "rng: stream pinned" `Quick test_rng_stream_pinned;
    Alcotest.test_case "rng: draw allocation" `Quick test_rng_draw_allocation;
    Alcotest.test_case "stats: rate mbps" `Quick test_rate_mbps;
    Alcotest.test_case "stats: rate series" `Quick test_rate_series;
    Alcotest.test_case "stats: latency percentiles" `Quick test_latency_percentiles;
    Alcotest.test_case "stats: trimmed mean" `Quick test_latency_trimmed;
    Alcotest.test_case "stats: busy utilization" `Quick test_busy_utilization;
    Alcotest.test_case "stats: windowed busy utilization" `Quick test_busy_windowed_utilization;
    Alcotest.test_case "stats: busy interval straddles window" `Quick
      test_busy_interval_straddles_window;
    Alcotest.test_case "stats: latency edge cases" `Quick test_latency_edge_cases;
    Alcotest.test_case "stats: latency reservoir" `Quick test_latency_reservoir;
    Alcotest.test_case "stats: rate bucket boundary" `Quick test_rate_bucket_boundary;
    Alcotest.test_case "stats: rate bounded memory" `Quick test_rate_bounded_memory;
    Alcotest.test_case "engine: pending tracks cancel" `Quick test_engine_pending_cancel;
    Alcotest.test_case "engine: budget boundary is exact" `Quick test_engine_budget_boundary;
    Alcotest.test_case "engine: budget ignores cancelled" `Quick
      test_engine_budget_ignores_cancelled;
    Alcotest.test_case "engine: cancelled records are swept" `Quick
      test_engine_cancel_memory_bound;
    Alcotest.test_case "engine: past schedule after clock jump" `Quick
      test_engine_past_schedule_after_jump;
    Alcotest.test_case "stats: snapshot json" `Quick test_snapshot_json ]
