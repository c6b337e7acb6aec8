(* The engine against an oracle, and golden digests of seeded runs.

   The timing wheel must fire events exactly like a plain sorted queue on
   (time, scheduling order): same fire order, same clock readings, same
   pending counts, on adversarial random schedules.  Whole-stack runs are
   pinned by digests of their outputs, so any change to event order,
   timing or randomness shows up as a digest mismatch. *)

(* Reference queue: pending events in a map ordered on (time, order),
   with a table from handle to key for cancellation. *)
module Ref_q = struct
  module M = Map.Make (struct
    type t = float * int

    let compare (ta, oa) (tb, ob) =
      let c = Float.compare ta tb in
      if c <> 0 then c else Int.compare oa ob
  end)

  type t = {
    mutable now : float;
    mutable seq : int;
    mutable q : (unit -> unit) M.t;
    keys : (int, float * int) Hashtbl.t;
  }

  let create () = { now = 0.0; seq = 0; q = M.empty; keys = Hashtbl.create 64 }
  let now t = t.now
  let pending t = Hashtbl.length t.keys

  let schedule t ~delay f =
    t.seq <- t.seq + 1;
    let key = (t.now +. Float.max 0.0 delay, t.seq) in
    t.q <- M.add key f t.q;
    Hashtbl.replace t.keys t.seq key;
    t.seq

  let cancel t h =
    Option.iter (fun key -> t.q <- M.remove key t.q) (Hashtbl.find_opt t.keys h);
    Hashtbl.remove t.keys h

  let rec drain t ~until =
    match M.min_binding_opt t.q with
    | Some (((time, seq) as key), f) when time <= until ->
        t.q <- M.remove key t.q;
        Hashtbl.remove t.keys seq;
        t.now <- time;
        f ();
        drain t ~until
    | _ -> ()

  let run t ~until =
    drain t ~until;
    if t.now < until then t.now <- until

  let run_all t = drain t ~until:infinity
end

(* The operations a replay program drives, over either queue; [schedule]
   returns the event's cancellation. *)
type scheduled = { cancel : unit -> unit }

type ops = {
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> scheduled;
  run : until:float -> unit;
  run_all : unit -> unit;
  pending : unit -> int;
}

let engine_ops () =
  let e = Sim.Engine.create () in
  { now = (fun () -> Sim.Engine.now e);
    schedule =
      (fun ~delay f ->
        let h = Sim.Engine.schedule e ~delay f in
        { cancel = (fun () -> Sim.Engine.cancel e h) });
    run = (fun ~until -> Sim.Engine.run e ~until);
    run_all = (fun () -> Sim.Engine.run_all e);
    pending = (fun () -> Sim.Engine.pending e) }

let ref_ops () =
  let q = Ref_q.create () in
  { now = (fun () -> Ref_q.now q);
    schedule =
      (fun ~delay f ->
        let h = Ref_q.schedule q ~delay f in
        { cancel = (fun () -> Ref_q.cancel q h) });
    run = Ref_q.run q;
    run_all = (fun () -> Ref_q.run_all q);
    pending = (fun () -> Ref_q.pending q) }

(* Runs [program] on the engine and on the reference queue; the two logs
   must be equal. *)
let both program = (program (engine_ops ()), program (ref_ops ()))

(* Random schedule/cancel/nested-schedule programs.  Delays cover
   sub-tick spacing, equal times (FIFO), every wheel level and the
   far-future overflow heap. *)
let delays =
  [| 0.0; 1.0e-7; 2.4e-7; 1.0e-6; 3.3e-4; 0.001; 0.5; 1.0; 1.0; 300.0; 5000.0 |]

let replay ops_list q =
  let log = Buffer.create 256 in
  let handles = Hashtbl.create 16 in
  let fire i () = Buffer.add_string log (Printf.sprintf "%d@%.9f;" i (q.now ())) in
  List.iteri
    (fun i (di, k) ->
      let d = delays.(di mod Array.length delays) in
      if k < 6 then begin
        (* Every third schedule arms a nested follow-up from inside its
           own callback. *)
        let h =
          if i mod 3 = 0 then
            q.schedule ~delay:d (fun () ->
                fire i ();
                ignore
                  (q.schedule
                     ~delay:(delays.((i * 3 + k) mod Array.length delays))
                     (fire (1000 + i))))
          else q.schedule ~delay:d (fire i)
        in
        Hashtbl.replace handles i h
      end
      else begin
        let j = (di * 13 + k) mod (i + 1) in
        Option.iter (fun h -> h.cancel ()) (Hashtbl.find_opt handles j)
      end)
    ops_list;
  q.run ~until:600.0;
  q.run_all ();
  Buffer.contents log

let prop_wheel_matches_reference =
  QCheck.Test.make ~name:"wheel and reference queue fire identically" ~count:150
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_range 0 10) (int_range 0 7)))
    (fun ops_list ->
      let w, r = both (replay ops_list) in
      String.equal w r)

(* Adversarial programs beyond the qcheck property: delays pinned to
   every wheel-level boundary (±1 tick), nested schedules from inside
   callbacks, heavy cancellation, and segmented [run ~until] calls that
   park the cursor far ahead before scheduling "in the past" — the
   regression surface of the wheel's cursor arithmetic.  Each seeded
   program must produce the reference queue's fire log and final
   pending count. *)
let boundary_tps = float_of_int Sim.Engine.ticks_per_second

let boundary_deltas =
  [| 0.0; 1.0 /. boundary_tps; 255.0 /. boundary_tps; 256.0 /. boundary_tps;
     257.0 /. boundary_tps; 65535.0 /. boundary_tps; 65536.0 /. boundary_tps;
     65537.0 /. boundary_tps; 16777216.0 /. boundary_tps;
     4294967296.0 /. boundary_tps; 0.013; 1.7; 42.0; 900.0; 1e7; infinity |]

let boundary_replay seed q =
  let st = Random.State.make [| seed |] in
  let log = Buffer.create 4096 in
  let handles = ref [] in
  let fire i () = Buffer.add_string log (Printf.sprintf "%d@%.9f;" i (q.now ())) in
  let n = ref 0 in
  let rec act depth i () =
    fire i ();
    if depth < 3 && Random.State.int st 100 < 40 then begin
      incr n;
      let d = boundary_deltas.(Random.State.int st (Array.length boundary_deltas)) in
      handles := q.schedule ~delay:d (act (depth + 1) (10000 + !n)) :: !handles
    end;
    if Random.State.int st 100 < 30 then
      match !handles with
      | h :: rest ->
          handles := rest;
          h.cancel ()
      | [] -> ()
  in
  for i = 1 to 400 do
    let d = boundary_deltas.(Random.State.int st (Array.length boundary_deltas)) in
    let h = q.schedule ~delay:d (act 0 i) in
    if Random.State.int st 100 < 25 then h.cancel () else handles := h :: !handles
  done;
  (* Segmented runs park the cursor ahead, then schedule "in the past". *)
  List.iter
    (fun u ->
      q.run ~until:u;
      let h = q.schedule ~delay:(Random.State.float st 2.0) (fire (-1)) in
      if Random.State.bool st then h.cancel ())
    [ 0.001; 0.5; 3.0; 50.0; 1000.0; 2e6 ];
  Buffer.add_string log (Printf.sprintf "pending=%d;" (q.pending ()));
  Buffer.contents log

let test_boundary_stress () =
  for seed = 0 to 49 do
    let w, r = both (boundary_replay seed) in
    if not (String.equal w r) then
      Alcotest.failf "wheel diverges from the reference at seed %d\nwheel: %s\nref  : %s"
        seed
        (String.sub w 0 (Stdlib.min 400 (String.length w)))
        (String.sub r 0 (Stdlib.min 400 (String.length r)))
  done

(* --- golden digests ----------------------------------------------------- *)

let check_digest what expected s =
  Alcotest.(check string) what expected (Digest.to_hex (Digest.string s))

(* A traced M-Ring run: the Chrome export embeds every event timestamp,
   so its digest pins the whole schedule. *)
let test_mring_trace_golden () =
  let tr = Trace.create () in
  let delivered = Test_trace.mring_smoke ~tracer:tr ~seed:7 () in
  Alcotest.(check int) "deliveries" 186 delivered;
  check_digest "trace export digest" "961788b779a0150701b9b918e08cc1fc" (Trace.to_chrome_json tr)

(* Every chaos scenario at seed 5: verdict, summary, violations and the
   fault timeline, times printed exactly.  The digests pin each schedule's
   draw order as well as the protocol runs under it. *)
let chaos_goldens =
  [ ("mring", "f36ea752489aee9cd6707569b5496c66");
    ("mring-pressure", "6d85a29f4629bfc1008d9408e978a10e");
    ("mring-reconfig", "fdd1b53e23c2a3a9f48fe8dd40e74cc4");
    ("mring-join", "827b9519012aa0517aba0add10fc41de");
    ("uring", "392b967767053c4d137169626bdc03e2");
    ("multiring", "6d08fb698a756bd117a82362daf41ed5");
    ("multiring-reconfig", "3de24c0e8e8c3c9368fa13cb6e29fb17");
    ("spaxos", "1c03c0466432f4eee20666ff01ca2913");
    ("lcr", "c0e87a31ed4cf47240e6b74b865de061");
    ("smr", "9a28ddb552a5f04ee5a73b15f1a0aba8");
    ("kv-lease", "eb4498f0c65b9162ff2bbd5280a5b67d") ]

let test_chaos_seed_golden () =
  List.iter
    (fun (protocol, digest) ->
      let o = Fault.Chaos.run_one ~protocol ~seed:5 ~duration:2.0 () in
      Alcotest.(check bool) (protocol ^ " verdict ok") true o.Fault.Chaos.ok;
      check_digest (protocol ^ " outcome digest") digest
        (String.concat "\n"
           ((o.Fault.Chaos.summary :: o.Fault.Chaos.violations)
           @ List.map (fun (t, ev) -> Printf.sprintf "%h %s" t ev) o.Fault.Chaos.events)))
    chaos_goldens

let suite =
  [ Alcotest.test_case "mring trace matches golden digest" `Quick test_mring_trace_golden;
    Alcotest.test_case "chaos seed matches golden digest" `Quick test_chaos_seed_golden;
    QCheck_alcotest.to_alcotest prop_wheel_matches_reference;
    Alcotest.test_case "level-boundary and parked-cursor stress" `Quick
      test_boundary_stress ]
