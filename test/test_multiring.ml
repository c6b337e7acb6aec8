(* Tests for Multi-Ring Paxos (Chapter 5): deterministic merge, skip
   messages, scalability behaviour and coordinator failure. *)

type Simnet.payload += Cmd of int

let make ?(config = Multiring.default_config) ?(n_learners = 1)
    ?(subs = fun _ -> List.init config.Multiring.n_rings Fun.id) ?(seed = 91) () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create seed) in
  let log = Hashtbl.create 8 in
  (* learner -> reversed (group, cmd) list *)
  let deliver ~learner ~group _ app =
    match app with
    | Cmd i ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt log learner) in
        Hashtbl.replace log learner ((group, i) :: prev)
    | _ -> ()
  in
  let mr = Multiring.create net config ~n_learners ~subs ~proposers_per_ring:1 ~deliver in
  (engine, net, mr, log)

let seq log l = List.rev (Option.value ~default:[] (Hashtbl.find_opt log l))

let test_single_ring_delivers () =
  let cfg = { Multiring.default_config with n_rings = 1 } in
  let engine, _, mr, log = make ~config:cfg () in
  for i = 1 to 20 do
    ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run engine ~until:0.5;
  Alcotest.(check (list (pair int int))) "in order"
    (List.init 20 (fun i -> (0, i + 1)))
    (seq log 0)

let test_two_rings_merge_deterministic () =
  let cfg = { Multiring.default_config with n_rings = 2; lambda = 20_000.0 } in
  let engine, _, mr, log = make ~config:cfg ~n_learners:2 () in
  for i = 1 to 30 do
    ignore (Multiring.multicast mr ~group:(i mod 2) ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run engine ~until:0.5;
  let s0 = seq log 0 and s1 = seq log 1 in
  Alcotest.(check int) "everything delivered" 30 (List.length s0);
  Alcotest.(check (list (pair int int))) "identical merged order at both learners" s0 s1

let test_skips_unblock_idle_ring () =
  (* Ring 1 is silent; without skips the merge would stall forever. *)
  let cfg = { Multiring.default_config with n_rings = 2; lambda = 5_000.0 } in
  let engine, _, mr, log = make ~config:cfg () in
  for i = 1 to 20 do
    ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run engine ~until:1.0;
  Alcotest.(check int) "all of group 0 delivered despite idle group 1" 20
    (List.length (seq log 0));
  Alcotest.(check bool) "skips were proposed for the idle ring" true
    (Multiring.skips_proposed mr 1 > 0)

let test_no_skips_stalls () =
  (* The lambda = 0 configuration of Fig. 5.8: merge stalls on the idle
     ring. *)
  let cfg = { Multiring.default_config with n_rings = 2; lambda = 0.0; m = 1 } in
  let engine, _, mr, log = make ~config:cfg () in
  for i = 1 to 20 do
    ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run engine ~until:1.0;
  (* With m = 1 and strict round-robin, at most one message can be merged
     before waiting on group 1. *)
  Alcotest.(check bool) "merge stalls without skips" true (List.length (seq log 0) <= 1);
  Alcotest.(check bool) "messages are buffered, not lost" true
    (Multiring.learner_buffer mr 0 >= 19)

let test_single_subscription_unaffected () =
  (* A learner of only group 0 needs no merge and no skips. *)
  let cfg = { Multiring.default_config with n_rings = 2; lambda = 0.0 } in
  let subs = function 0 -> [ 0 ] | _ -> [ 1 ] in
  let engine, _, mr, log = make ~config:cfg ~n_learners:2 ~subs () in
  for i = 1 to 20 do
    ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run engine ~until:0.5;
  Alcotest.(check int) "dedicated learner flows freely" 20 (List.length (seq log 0));
  Alcotest.(check int) "other learner sees nothing" 0 (List.length (seq log 1))

let test_m_preserves_order () =
  let cfg = { Multiring.default_config with n_rings = 2; m = 10; lambda = 20_000.0 } in
  let engine, _, mr, log = make ~config:cfg ~n_learners:2 () in
  for i = 1 to 40 do
    ignore (Multiring.multicast mr ~group:(i mod 2) ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run engine ~until:0.5;
  Alcotest.(check int) "all delivered" 40 (List.length (seq log 0));
  Alcotest.(check (list (pair int int))) "m=10 merge still deterministic"
    (seq log 0) (seq log 1);
  (* Per-group subsequences keep their ring order. *)
  let ring_order g = List.filter (fun (g', _) -> g' = g) (seq log 0) |> List.map snd in
  Alcotest.(check (list int)) "group 0 FIFO" (List.sort compare (ring_order 0)) (ring_order 0);
  Alcotest.(check (list int)) "group 1 FIFO" (List.sort compare (ring_order 1)) (ring_order 1)

let test_buffer_overflow_halts () =
  let cfg =
    { Multiring.default_config with n_rings = 2; lambda = 0.0; buffer_items = 10 }
  in
  let engine, _, mr, log = make ~config:cfg () in
  for i = 1 to 50 do
    ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run engine ~until:1.0;
  ignore log;
  Alcotest.(check bool) "learner halted on overflow" true (Multiring.learner_halted mr 0)

let test_coordinator_failure_recovery () =
  (* Fig. 5.11: kill the coordinator of ring 0; delivery stalls, then
     catches up after the ring recovers and skips cover the outage. *)
  let cfg = { Multiring.default_config with n_rings = 2; lambda = 5_000.0 } in
  let engine, net, mr, _log = make ~config:cfg () in
  let stop =
    Simnet.every net ~period:1.0e-3 (fun () ->
        ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:256 (Cmd 0));
        ignore (Multiring.multicast mr ~group:1 ~proposer:0 ~size:256 (Cmd 0)))
  in
  Sim.Engine.run engine ~until:0.5;
  let before = Multiring.learner_delivered mr 0 in
  Multiring.kill_ring_coordinator mr 0;
  Sim.Engine.run engine ~until:0.8;
  Sim.Engine.run engine ~until:3.0;
  stop ();
  Sim.Engine.run engine ~until:4.0;
  let after = Multiring.learner_delivered mr 0 in
  Alcotest.(check bool) "delivered before failure" true (before > 100);
  Alcotest.(check bool)
    (Printf.sprintf "delivery resumes after recovery (%d -> %d)" before after)
    true
    (after > before + 500)

let test_reconfigure_keeps_merge_running () =
  (* Reconfigure ring 0 mid-run (spare 2 replaces the coordinator's
     ring-mate): the handoff refuses skip proposals for a window, and the
     controller must carry that deficit forward so neither ring's merge
     column starves — every message from both rings still comes out, in
     the same order at both learners. *)
  let cfg =
    { Multiring.default_config with
      n_rings = 2;
      lambda = 5_000.0;
      ring = { Ringpaxos.Mring.default_config with f = 1 } }
  in
  let engine, net, mr, log = make ~config:cfg ~n_learners:2 () in
  let next = ref 0 in
  let stop =
    Simnet.every net ~period:1.0e-3 (fun () ->
        incr next;
        ignore (Multiring.multicast mr ~group:(!next mod 2) ~proposer:0 ~size:256 (Cmd !next)))
  in
  Sim.Engine.run engine ~until:0.3;
  ignore (Multiring.reconfigure_ring mr 0 ~ring:[ 0; 2 ]);
  Sim.Engine.run engine ~until:1.0;
  stop ();
  Sim.Engine.run engine ~until:3.0;
  Alcotest.(check int) "ring 0 epoch turned over" 1 (Multiring.ring_epoch mr 0);
  Alcotest.(check int) "ring 1 epoch untouched" 0 (Multiring.ring_epoch mr 1);
  let s0 = seq log 0 in
  Alcotest.(check int) "nothing lost across the handoff" !next (List.length s0);
  Alcotest.(check (list (pair int int))) "merge stays deterministic" s0 (seq log 1);
  let ring_order g = List.filter (fun (g', _) -> g' = g) s0 |> List.map snd in
  Alcotest.(check (list int)) "group 0 FIFO across epochs"
    (List.sort compare (ring_order 0)) (ring_order 0);
  Alcotest.(check (list int)) "group 1 FIFO"
    (List.sort compare (ring_order 1)) (ring_order 1)

let prop_merge_agreement =
  QCheck.Test.make ~name:"multiring: learners merge identically" ~count:10
    QCheck.(pair (int_range 2 4) (int_range 10 50))
    (fun (n_rings, n_msgs) ->
      let cfg = { Multiring.default_config with n_rings; lambda = 20_000.0 } in
      let engine, _, mr, log = make ~config:cfg ~n_learners:2 ~seed:(n_msgs * 31) () in
      for i = 1 to n_msgs do
        ignore (Multiring.multicast mr ~group:(i mod n_rings) ~proposer:0 ~size:256 (Cmd i))
      done;
      Sim.Engine.run engine ~until:1.5;
      let s0 = seq log 0 in
      List.length s0 = n_msgs && s0 = seq log 1)

let suite =
  [ Alcotest.test_case "single ring delivers" `Quick test_single_ring_delivers;
    Alcotest.test_case "two rings merge deterministically" `Quick
      test_two_rings_merge_deterministic;
    Alcotest.test_case "skips unblock idle ring" `Quick test_skips_unblock_idle_ring;
    Alcotest.test_case "lambda=0 stalls merge" `Quick test_no_skips_stalls;
    Alcotest.test_case "single-subscription learner unaffected" `Quick
      test_single_subscription_unaffected;
    Alcotest.test_case "m=10 merge order" `Quick test_m_preserves_order;
    Alcotest.test_case "buffer overflow halts learner" `Quick test_buffer_overflow_halts;
    Alcotest.test_case "coordinator failure + catch-up" `Quick
      test_coordinator_failure_recovery;
    Alcotest.test_case "reconfiguration keeps the merge running" `Quick
      test_reconfigure_keeps_merge_running;
    QCheck_alcotest.to_alcotest prop_merge_agreement ]

let test_groups_share_rings () =
  (* gamma = 4 groups over delta = 2 rings (§5.2.4): ordering still works,
     and a single-group learner receives (and discards) co-hosted traffic. *)
  let cfg =
    { Multiring.default_config with n_rings = 2; n_groups = 4; lambda = 20_000.0 }
  in
  let subs = function 0 -> [ 0 ] | _ -> [ 0; 1; 2; 3 ] in
  let engine, _, mr, log = make ~config:cfg ~n_learners:2 ~subs () in
  for i = 1 to 40 do
    ignore (Multiring.multicast mr ~group:(i mod 4) ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run engine ~until:1.0;
  let s0 = seq log 0 and s1 = seq log 1 in
  Alcotest.(check int) "all-group learner got everything" 40 (List.length s1);
  Alcotest.(check bool) "single-group learner got only group 0" true
    (List.for_all (fun (g, _) -> g = 0) s0 && List.length s0 = 10);
  (* Group 0 shares ring 0 with group 2: learner 0 pays for group 2. *)
  Alcotest.(check bool) "foreign traffic observed and discarded" true
    (Multiring.foreign_items mr 0 > 0);
  (* Merged order per group is identical across learners. *)
  let only g l = List.filter (fun (g', _) -> g' = g) l in
  Alcotest.(check (list (pair int int))) "group-0 order agrees" (only 0 s0) (only 0 s1)

(* Minor words per item delivered by a steady single-ring stream, with a
   callback that only counts: one item submitted every 100 us, measured
   over the second 0.2 s.  [via_multiring] sends it through Multi-Ring
   Paxos (one group, no skips); otherwise straight through the M-Ring
   Paxos instance underneath, on the same machines, so the difference is
   what the multicast wrapper and the merge cost per item. *)
let steady_stream_words ~via_multiring =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create 91) in
  let delivered = ref 0 in
  let cmd = Cmd 1 in
  let submit =
    if via_multiring then begin
      let cfg = { Multiring.default_config with n_rings = 1; lambda = 0.0 } in
      let mr =
        Multiring.create net cfg ~n_learners:1 ~subs:(fun _ -> [ 0 ])
          ~proposers_per_ring:1
          ~deliver:(fun ~learner:_ ~group:_ _ _ -> incr delivered)
      in
      fun () -> ignore (Multiring.multicast mr ~group:0 ~proposer:0 ~size:256 cmd)
    end
    else begin
      let nodes = [| Simnet.add_node net "mrl0" |] in
      let ring =
        Ringpaxos.Mring.create ~learner_nodes:nodes net Ringpaxos.Mring.default_config
          ~n_proposers:2 ~n_learners:1
          ~learner_parts:(fun _ -> [ 0 ])
          ~deliver:(fun ~learner:_ ~inst:_ v ->
            match v with
            | Some (v : Paxos.Value.t) -> delivered := !delivered + List.length v.items
            | None -> ())
      in
      fun () -> ignore (Ringpaxos.Mring.submit ring ~proposer:1 ~size:256 cmd)
    end
  in
  let (_stop : unit -> unit) =
    Simnet.every_tk net ~ticks:(Sim.Engine.ticks_of_duration 1.0e-4) submit
  in
  Sim.Engine.run engine ~until:0.2;
  let d0 = !delivered in
  let w0 = Gc.minor_words () in
  Sim.Engine.run engine ~until:0.4;
  let words = Gc.minor_words () -. w0 in
  let items = !delivered - d0 in
  (items, words /. float_of_int (Stdlib.max 1 items))

let test_steady_stream_allocation () =
  let items, multi = steady_stream_words ~via_multiring:true in
  let ring_items, ring = steady_stream_words ~via_multiring:false in
  Alcotest.(check bool) "the stream delivered" true (items >= 1900);
  Alcotest.(check int) "same stream either way" ring_items items;
  (* The group tag (4 words) and the merge queue's cell (3), plus the skip
     controller's idle timer. *)
  Alcotest.(check bool)
    (Printf.sprintf "multi-ring adds %.1f words per item (%.1f over %.1f; <= 8)"
       (multi -. ring) multi ring)
    true
    (multi -. ring <= 8.0)

let suite =
  suite
  @ [ Alcotest.test_case "gamma groups over delta rings" `Quick test_groups_share_rings;
      Alcotest.test_case "steady stream allocation bound" `Quick test_steady_stream_allocation ]
