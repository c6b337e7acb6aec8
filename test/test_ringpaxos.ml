(* Tests for M-Ring Paxos (Algorithm 2) and U-Ring Paxos (Algorithm 3). *)

type Simnet.payload += Cmd of int

let cmd_ids (v : Paxos.Value.t) =
  List.filter_map
    (fun (it : Paxos.Value.item) -> match it.app with Cmd i -> Some i | _ -> None)
    v.items

(* --- M-Ring Paxos -------------------------------------------------------- *)

type mring_env = {
  engine : Sim.Engine.t;
  net : Simnet.t;
  mr : Ringpaxos.Mring.t;
  seqs : (int, int list ref) Hashtbl.t; (* learner -> delivered cmd ids, reversed *)
  skips : (int, int ref) Hashtbl.t; (* learner -> count of None deliveries *)
}

let make_mring ?(config = Ringpaxos.Mring.default_config) ?net_config ?speculative
    ?(n_proposers = 1) ?(n_learners = 2) ?(learner_parts = fun _ -> [ 0 ]) ?(seed = 9) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create seed in
  let net = Simnet.create ?config:net_config engine rng in
  let seqs = Hashtbl.create 8 and skips = Hashtbl.create 8 in
  for i = 0 to n_learners - 1 do
    Hashtbl.replace seqs i (ref []);
    Hashtbl.replace skips i (ref 0)
  done;
  let deliver ~learner ~inst:_ v =
    match v with
    | Some v ->
        let r = Hashtbl.find seqs learner in
        r := List.rev_append (cmd_ids v) !r
    | None -> incr (Hashtbl.find skips learner)
  in
  let mr =
    Ringpaxos.Mring.create ?speculative net config ~n_proposers ~n_learners ~learner_parts
      ~deliver
  in
  { engine; net; mr; seqs; skips }

let seq env l = List.rev !(Hashtbl.find env.seqs l)

let test_mring_basic () =
  let env = make_mring () in
  for i = 1 to 40 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.5;
  Alcotest.(check (list int)) "all delivered in order" (List.init 40 (fun i -> i + 1)) (seq env 0);
  Alcotest.(check (list int)) "learners agree" (seq env 0) (seq env 1)

let test_mring_batching () =
  let env = make_mring () in
  for i = 1 to 64 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.5;
  let n_inst = Ringpaxos.Mring.decided env.mr in
  Alcotest.(check int) "all items" 64 (List.length (seq env 0));
  Alcotest.(check bool) "batched into few instances" true (n_inst <= 8)

let test_mring_ring_size () =
  let cfg = { Ringpaxos.Mring.default_config with f = 3 } in
  let env = make_mring ~config:cfg () in
  Alcotest.(check int) "ring has f+1 members" 4 (Ringpaxos.Mring.ring_size env.mr);
  ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:100 (Cmd 1));
  Sim.Engine.run env.engine ~until:0.5;
  Alcotest.(check (list int)) "delivers through longer ring" [ 1 ] (seq env 0)

let test_mring_multi_proposer () =
  let env = make_mring ~n_proposers:3 () in
  for i = 1 to 30 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:(i mod 3) ~size:200 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.5;
  Alcotest.(check int) "all delivered" 30 (List.length (seq env 0));
  Alcotest.(check (list int)) "agreement" (seq env 0) (seq env 1);
  Alcotest.(check (list int)) "no dup, no loss"
    (List.init 30 (fun i -> i + 1))
    (List.sort compare (seq env 0))

let test_mring_speculative_before_decision () =
  let spec_log = ref [] in
  let speculative ~learner ~inst v =
    if learner = 0 then spec_log := (inst, cmd_ids v) :: !spec_log
  in
  let env = make_mring ~speculative () in
  for i = 1 to 10 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.5;
  let spec_cmds = List.concat_map snd (List.rev !spec_log) in
  Alcotest.(check (list int)) "speculative delivery sees all commands in order"
    (List.init 10 (fun i -> i + 1))
    spec_cmds;
  (* Speculative order must match the confirmed order. *)
  Alcotest.(check (list int)) "confirmed order matches" spec_cmds (seq env 0)

let test_mring_partitioned_skip () =
  let cfg = { Ringpaxos.Mring.default_config with partitions = 2 } in
  let learner_parts = function 0 -> [ 0 ] | _ -> [ 1 ] in
  let env = make_mring ~config:cfg ~learner_parts () in
  (* Commands 1..10 to partition 0, 11..20 to partition 1. *)
  for i = 1 to 10 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~parts:[ 0 ] ~size:256 (Cmd i))
  done;
  for i = 11 to 20 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~parts:[ 1 ] ~size:256 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.5;
  let s0 = seq env 0 and s1 = seq env 1 in
  Alcotest.(check bool) "learner 0 only sees partition 0" true
    (List.for_all (fun c -> c <= 10) s0 && List.length s0 = 10);
  Alcotest.(check bool) "learner 1 only sees partition 1" true
    (List.for_all (fun c -> c > 10) s1 && List.length s1 = 10);
  Alcotest.(check bool) "learner 0 skipped foreign instances" true (!(Hashtbl.find env.skips 0) > 0)

let test_mring_cross_partition_total_order () =
  (* Commands addressed to both partitions must be ordered identically
     relative to single-partition commands at both learners. *)
  let cfg = { Ringpaxos.Mring.default_config with partitions = 2; batch_bytes = 0 } in
  let learner_parts = function 0 -> [ 0 ] | _ -> [ 1 ] in
  let env = make_mring ~config:cfg ~learner_parts () in
  for i = 1 to 30 do
    let parts = if i mod 3 = 0 then [ 0; 1 ] else if i mod 3 = 1 then [ 0 ] else [ 1 ] in
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~parts ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.5;
  let cross = List.filter (fun c -> c mod 3 = 0) in
  Alcotest.(check (list int)) "cross-partition commands identically ordered"
    (cross (seq env 0)) (cross (seq env 1))

let test_mring_flow_control_shrinks_window () =
  let cfg = { Ringpaxos.Mring.default_config with fc_threshold = 8; window = 64 } in
  let env = make_mring ~config:cfg () in
  (* Learner 0 becomes extremely slow. *)
  Ringpaxos.Mring.set_learner_delay env.mr 0 2.0e-3;
  let stop =
    Simnet.every env.net ~period:2.0e-4 (fun () ->
        ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:4096 (Cmd 0)))
  in
  Sim.Engine.run env.engine ~until:1.0;
  stop ();
  Alcotest.(check bool) "window reduced below maximum" true
    (Ringpaxos.Mring.current_window env.mr < 64)

let test_mring_window_recovers () =
  let cfg = { Ringpaxos.Mring.default_config with fc_threshold = 8; window = 64 } in
  let env = make_mring ~config:cfg () in
  Ringpaxos.Mring.set_learner_delay env.mr 0 2.0e-3;
  let stop =
    Simnet.every env.net ~period:2.0e-4 (fun () ->
        ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:4096 (Cmd 0)))
  in
  Sim.Engine.run env.engine ~until:1.0;
  stop ();
  (* Learner speeds back up; the coordinator's window regrows. *)
  Ringpaxos.Mring.set_learner_delay env.mr 0 0.0;
  Sim.Engine.run env.engine ~until:3.0;
  Alcotest.(check int) "window back at maximum" 64 (Ringpaxos.Mring.current_window env.mr)

let test_mring_coordinator_failover () =
  let env = make_mring () in
  for i = 1 to 10 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.3;
  Ringpaxos.Mring.kill_coordinator env.mr;
  Sim.Engine.run env.engine ~until:1.5;
  for i = 11 to 20 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:3.0;
  let got = List.sort_uniq compare (seq env 0) in
  Alcotest.(check (list int)) "all commands survive coordinator crash"
    (List.init 20 (fun i -> i + 1))
    got;
  Alcotest.(check (list int)) "learners still agree" (seq env 0) (seq env 1)

let test_mring_acceptor_failover () =
  let env = make_mring () in
  for i = 1 to 10 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.3;
  (* Kill the first in-ring acceptor; a spare must replace it. *)
  Ringpaxos.Mring.kill_ring_acceptor env.mr 0;
  Sim.Engine.run env.engine ~until:1.5;
  for i = 11 to 20 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:3.0;
  let got = List.sort_uniq compare (seq env 0) in
  Alcotest.(check (list int)) "all commands survive acceptor crash"
    (List.init 20 (fun i -> i + 1))
    got

let test_mring_sync_disk_slower () =
  let run durability =
    let cfg = { Ringpaxos.Mring.default_config with durability } in
    let env = make_mring ~config:cfg () in
    let done_at = ref 0.0 in
    let stop =
      Simnet.every env.net ~period:1.0e-4 (fun () ->
          if Sim.Engine.now env.engine < 0.05 then
            ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:1024 (Cmd 1)))
    in
    Sim.Engine.run env.engine ~until:1.0;
    stop ();
    done_at := Sim.Engine.now env.engine;
    List.length (seq env 0)
  in
  let mem = run Ringpaxos.Mring.Memory in
  let disk = run Ringpaxos.Mring.Sync_disk in
  Alcotest.(check bool) "sync disk not faster than memory" true (disk <= mem);
  Alcotest.(check bool) "sync disk still delivers" true (disk > 0)

let test_mring_gc_frees_memory () =
  let cfg = { Ringpaxos.Mring.default_config with gc_period = 0.02 } in
  let env = make_mring ~config:cfg () in
  for i = 1 to 100 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:1024 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:2.0;
  let accs = Ringpaxos.Mring.acceptor_procs env.mr in
  let coord_mem = Simnet.mem (Ringpaxos.Mring.coordinator_proc env.mr) in
  ignore accs;
  (* After GC, the coordinator buffer should hold far less than the ~100 KB
     proposed. *)
  Alcotest.(check bool) "memory reclaimed" true (coord_mem < 50 * 1024)

(* --- M-Ring buffer accounting -------------------------------------------- *)

let test_mring_mem_counters_fall () =
  (* The running byte counters must shrink when GC prunes votes and when a
     learner delivers a value; a counter that only grows fails the recount. *)
  let cfg = { Ringpaxos.Mring.default_config with gc_period = 0.02 } in
  let env = make_mring ~config:cfg () in
  for i = 1 to 100 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:1024 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:2.0;
  Alcotest.(check int) "all delivered" 100 (List.length (seq env 0));
  Alcotest.(check bool) "gc pruned the coordinator's votes" true
    (Simnet.mem (Ringpaxos.Mring.coordinator_proc env.mr) < 50 * 1024);
  Alcotest.(check bool) "counters equal a recount" true
    (Ringpaxos.Mring.Testing.mem_consistent env.mr)

(* Random runs mixing lossy multicast (learner and acceptor Retrans repair),
   GC, and a coordinator crash that wipes its in-memory votes, then its
   restart: after every step each counter equals a full recount. *)
let prop_mring_mem_counters =
  QCheck.Test.make ~name:"mring: buffer counters equal a recount" ~count:12
    QCheck.(triple (int_range 1 10_000) (int_range 0 4) (int_range 2 10))
    (fun (seed, loss_pct, crash_step) ->
      let net_config =
        { Simnet.default_config with udp_base_loss = float_of_int loss_pct /. 100.0 }
      in
      let config = { Ringpaxos.Mring.default_config with gc_period = 0.02 } in
      let env = make_mring ~config ~net_config ~n_learners:3 ~seed () in
      let mr = env.mr in
      let crashed = ref (-1) and next = ref 0 and ok = ref true in
      for step = 1 to 16 do
        for _ = 1 to 8 do
          incr next;
          ignore
            (Ringpaxos.Mring.submit mr ~proposer:0 ~size:(64 + (!next * 37 mod 2000)) (Cmd !next))
        done;
        if step = crash_step then begin
          (* Mid-step, so the coordinator holds undecided votes that the
             crash wipes and the next coordinator re-proposes. *)
          Sim.Engine.run env.engine ~until:((0.1 *. float_of_int (step - 1)) +. 0.002);
          let coord = Ringpaxos.Mring.coordinator_proc mr in
          Array.iteri
            (fun i p -> if p == coord then crashed := i)
            (Ringpaxos.Mring.acceptor_procs mr);
          Ringpaxos.Mring.crash_acceptor mr !crashed
        end;
        if step = crash_step + 3 then Ringpaxos.Mring.restart_acceptor mr !crashed;
        Sim.Engine.run env.engine ~until:(0.1 *. float_of_int step);
        ok := !ok && Ringpaxos.Mring.Testing.mem_consistent mr
      done;
      !ok)

(* --- M-Ring dynamic membership ------------------------------------------- *)

let test_mring_reconfigure_under_load () =
  (* A membership change ordered through the ring itself: traffic submitted
     before, across and after the boundary is delivered exactly once, in
     agreement, and the epoch turns over to the requested ring. *)
  let cfg = { Ringpaxos.Mring.default_config with f = 1 } in
  let env = make_mring ~config:cfg () in
  for i = 1 to 30 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.2;
  (* Swap the first ring member for spare 2, keeping the coordinator. *)
  ignore (Ringpaxos.Mring.reconfigure env.mr ~ring:[ 2; 1 ] ());
  for i = 31 to 60 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:2.0;
  Alcotest.(check (list int)) "no loss, no duplication across the epoch"
    (List.init 60 (fun i -> i + 1))
    (List.sort compare (seq env 0));
  Alcotest.(check (list int)) "learners agree" (seq env 0) (seq env 1);
  Alcotest.(check int) "epoch turned over" 1 (Ringpaxos.Mring.epoch env.mr);
  Alcotest.(check (list int)) "requested ring installed" [ 2; 1 ]
    (Ringpaxos.Mring.membership env.mr);
  Alcotest.(check bool) "reconfiguration finished" false
    (Ringpaxos.Mring.reconfiguring env.mr)

let test_mring_joiner_catches_up () =
  (* An acceptor added at runtime enters the ring and must replay the
     decided prefix below its activation instance via gap repair. *)
  let cfg = { Ringpaxos.Mring.default_config with f = 1 } in
  let env = make_mring ~config:cfg () in
  let joiner = Ringpaxos.Mring.add_acceptor env.mr in
  for i = 1 to 40 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.3;
  ignore (Ringpaxos.Mring.reconfigure env.mr ~ring:[ joiner; 1 ] ());
  for i = 41 to 80 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:3.0;
  Alcotest.(check bool) "joiner finished catching up" false
    (Ringpaxos.Mring.catching_up env.mr joiner);
  Alcotest.(check (list int)) "full history delivered"
    (List.init 80 (fun i -> i + 1))
    (List.sort compare (seq env 0));
  Alcotest.(check (list int)) "agreement" (seq env 0) (seq env 1);
  Alcotest.(check (list int)) "joiner serves in the ring" [ joiner; 1 ]
    (Ringpaxos.Mring.membership env.mr);
  (* The catch-up import writes votes and decided marks straight into the
     joiner's log: its counters must still equal a recount. *)
  Alcotest.(check bool) "log counters equal a recount" true
    (Ringpaxos.Mring.Testing.mem_consistent env.mr)

let test_mring_coordinator_handoff () =
  (* The reconfiguration moves the coordinator role: the old coordinator
     drains its in-flight instances, transfers its bookkeeping, and the
     new one takes over without losing or duplicating anything — even
     when the old coordinator dies right after the handoff. *)
  let cfg = { Ringpaxos.Mring.default_config with f = 2 } in
  let env = make_mring ~config:cfg () in
  for i = 1 to 40 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.2;
  (* Ring [0;1;2] with acc2 coordinating; hand the role to spare 3. *)
  ignore (Ringpaxos.Mring.reconfigure env.mr ~ring:[ 0; 1; 3 ] ());
  Sim.Engine.run env.engine ~until:1.0;
  Ringpaxos.Mring.crash_acceptor env.mr 2;
  for i = 41 to 80 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:3.0;
  Alcotest.(check (list int)) "zero lost or duplicated deliveries"
    (List.init 80 (fun i -> i + 1))
    (List.sort compare (seq env 0));
  Alcotest.(check (list int)) "agreement across the handoff" (seq env 0) (seq env 1);
  Alcotest.(check (list int)) "new coordinator's ring" [ 0; 1; 3 ]
    (Ringpaxos.Mring.membership env.mr)

let test_mring_staged_learner_delivers_suffix () =
  (* A learner staged before the run and activated by a reconfiguration
     delivers exactly the suffix from its activation instance: a
     contiguous tail of the established order, nothing from before. *)
  let cfg = { Ringpaxos.Mring.default_config with f = 1 } in
  let env = make_mring ~config:cfg () in
  let lrn = Ringpaxos.Mring.stage_learner env.mr ~parts:[ 0 ] in
  Hashtbl.replace env.seqs lrn (ref []);
  Hashtbl.replace env.skips lrn (ref 0);
  Alcotest.(check bool) "staged learner inactive" false
    (Ringpaxos.Mring.learner_active env.mr lrn);
  for i = 1 to 30 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.3;
  Alcotest.(check (list int)) "nothing before activation" [] (seq env lrn);
  ignore (Ringpaxos.Mring.reconfigure env.mr ~add_learners:[ lrn ] ~ring:[ 0; 1 ] ());
  for i = 31 to 60 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:3.0;
  Alcotest.(check bool) "activated" true (Ringpaxos.Mring.learner_active env.mr lrn);
  let full = seq env 0 and suffix = seq env lrn in
  Alcotest.(check bool) "delivered a non-empty suffix" true (suffix <> []);
  let skip = List.length full - List.length suffix in
  Alcotest.(check bool) "suffix no longer than the full history" true (skip >= 0);
  Alcotest.(check (list int)) "exactly the tail of the total order" suffix
    (List.filteri (fun i _ -> i >= skip) full)

let test_mring_learner_removal_stops_at_boundary () =
  (* A removed learner delivers a prefix — nothing past the activation —
     and its silence must not wedge garbage collection or delivery for
     the learners that remain. *)
  let cfg = { Ringpaxos.Mring.default_config with f = 1; gc_period = 0.02 } in
  let env = make_mring ~config:cfg () in
  for i = 1 to 30 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:0.3;
  ignore (Ringpaxos.Mring.reconfigure env.mr ~remove_learners:[ 1 ] ~ring:[ 0; 1 ] ());
  Sim.Engine.run env.engine ~until:1.0;
  let frozen = seq env 1 in
  for i = 31 to 60 do
    ignore (Ringpaxos.Mring.submit env.mr ~proposer:0 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.engine ~until:3.0;
  Alcotest.(check bool) "removed learner deactivated" false
    (Ringpaxos.Mring.learner_active env.mr 1);
  Alcotest.(check (list int)) "no deliveries past the boundary" frozen (seq env 1);
  Alcotest.(check (list int)) "remaining learner unaffected"
    (List.init 60 (fun i -> i + 1))
    (List.sort compare (seq env 0));
  (* GC quorum now counts active learners only: memory keeps being
     reclaimed without learner 1's version reports. *)
  Alcotest.(check bool) "gc not wedged by the removed learner" true
    (Simnet.mem (Ringpaxos.Mring.coordinator_proc env.mr) < 50 * 1024)

(* A bare M-Ring stream of 8 KB items, one full batch and so one consensus
   instance each: two proposers alternate submissions every [every]
   seconds to three learners.  Returns the submissions that were refused
   (-1), the instances decided, and the minor words allocated per decided
   instance between 0.3 s and 0.9 s. *)
let mring_stream ?(config = Ringpaxos.Mring.default_config) ~every () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create 7) in
  let mr =
    Ringpaxos.Mring.create net config ~n_proposers:2 ~n_learners:3
      ~learner_parts:(fun _ -> [ 0 ])
      ~deliver:(fun ~learner:_ ~inst:_ _ -> ())
  in
  let k = ref 0 and refused = ref 0 in
  let (_stop : unit -> unit) =
    Simnet.every_tk net ~ticks:(Sim.Engine.ticks_of_duration every) (fun () ->
        incr k;
        if Ringpaxos.Mring.submit mr ~proposer:(!k land 1) ~size:8192 Simnet.Noop < 0 then
          incr refused)
  in
  Sim.Engine.run engine ~until:0.3;
  let d0 = Ringpaxos.Mring.decided mr in
  let w0 = Gc.minor_words () in
  Sim.Engine.run engine ~until:0.9;
  let words = Gc.minor_words () -. w0 in
  let decided = Ringpaxos.Mring.decided mr - d0 in
  (!refused, decided, words /. float_of_int (Stdlib.max 1 decided))

(* One consensus instance allocates the records it sends and keeps, not
   closures, options or sorted copies rebuilt per instance: the stream
   read 550 words per instance with those, 273 without, 163 once the
   two multicasts per instance stopped allocating a switch closure and
   boxed loss-model floats and the decided tables stopped storing
   (vid, parts) pairs, and 138 once each acceptor kept one slot per
   instance instead of three table entries (158 with three). *)
let test_mring_instance_allocation () =
  let refused, decided, words = mring_stream ~every:2.0e-4 () in
  Alcotest.(check int) "no submission refused" 0 refused;
  Alcotest.(check bool) (Printf.sprintf "the stream decided (%d instances)" decided) true
    (decided >= 2900);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per decided instance (<= 148)" words)
    true (words <= 148.0)

(* Proposers learn that their items committed from the decision
   multicast's item list, which releases their buffer: a 64 KB buffer
   holds eight 8 KB items, so a stream paced to one item per round trip
   runs indefinitely only if every decision acknowledges its item. *)
let test_mring_decisions_ack_proposers () =
  let config = { Ringpaxos.Mring.default_config with proposer_buffer = 64 * 1024 } in
  let refused, decided, _ = mring_stream ~config ~every:5.0e-3 () in
  Alcotest.(check int) "no submission refused" 0 refused;
  Alcotest.(check bool) (Printf.sprintf "the stream decided (%d instances)" decided) true
    (decided >= 110)

(* Proposers resubmit every item still unacknowledged after 0.5 s, even
   one the coordinator already holds (DESIGN.md, "Proposer
   resubmission").  In a stream the coordinator keeps up with, each item
   is decided well inside that timeout, so the coordinator must see each
   submitted item exactly once.  Proposers send the coordinator nothing
   but [Propose], so the wrapped handler counts messages from proposer
   pids. *)
let test_mring_nominal_stream_no_resubmission () =
  let env = make_mring ~n_proposers:2 () in
  let coord = Ringpaxos.Mring.coordinator_proc env.mr in
  let props = List.init 2 (fun i -> Simnet.pid (Ringpaxos.Mring.proposer_proc env.mr i)) in
  let proposes = ref 0 in
  let inner = Simnet.handler_of coord in
  Simnet.set_handler coord (fun m ->
      if List.mem m.src props then incr proposes;
      inner m);
  let k = ref 0 in
  let stop =
    Simnet.every_tk env.net ~ticks:(Sim.Engine.ticks_of_duration 5.0e-4) (fun () ->
        incr k;
        if Ringpaxos.Mring.submit env.mr ~proposer:(!k land 1) ~size:1024 (Cmd !k) < 0 then
          Alcotest.fail "submit refused")
  in
  Sim.Engine.run env.engine ~until:1.5;
  stop ();
  Sim.Engine.run env.engine ~until:2.5;
  Alcotest.(check bool) "the stream ran past several resubmit sweeps" true (!k >= 2900);
  Alcotest.(check int) "every item delivered" !k (List.length (seq env 0));
  Alcotest.(check int) "one Propose per submit" !k !proposes

(* A steady bare M-Ring stream: two proposers alternate 1 KB submissions
   every [every] seconds to three learners.  [on_start] runs once the
   deployment exists, before the stream starts. *)
let steady_stream ?(on_start = fun _ _ -> ()) ~every () =
  let env = make_mring ~n_proposers:2 ~n_learners:3 () in
  on_start env.net env.mr;
  let k = ref 0 in
  let stop =
    Simnet.every_tk env.net ~ticks:(Sim.Engine.ticks_of_duration every) (fun () ->
        incr k;
        if Ringpaxos.Mring.submit env.mr ~proposer:(!k land 1) ~size:1024 (Cmd !k) < 0 then
          Alcotest.fail "submit refused")
  in
  (env, k, stop)

(* The dedup sets (each acceptor's done uids of pruned votes, the
   coordinator's seen uids) hold every uid a ring ever decided, but as a
   floor plus the uids decided ahead of an older pending one: the entries
   above the floors stay within the in-flight window however long the
   stream runs (this stream's items arrive in order, and it reads 0).
   Plain uid tables held about four entries per item, 403k here. *)
let test_mring_dedup_state_bounded () =
  let peak = ref 0 in
  let env, k, stop =
    steady_stream ~every:5.0e-5
      ~on_start:(fun net mr ->
        let (_stop : unit -> unit) =
          Simnet.every net ~period:0.01 (fun () ->
              peak := Stdlib.max !peak (Ringpaxos.Mring.Testing.dedup_sparse mr))
        in
        ())
      ()
  in
  Sim.Engine.run env.engine ~until:5.0;
  stop ();
  Sim.Engine.run env.engine ~until:5.5;
  Alcotest.(check bool) (Printf.sprintf "a long stream (%d items)" !k) true (!k >= 100_000);
  Alcotest.(check int) "every item delivered" !k (List.length (seq env 0));
  Alcotest.(check bool)
    (Printf.sprintf "%d entries above the floors at most (<= 256)" !peak)
    true (!peak <= 256)

(* Phase 1 after a coordinator crash ships each acceptor's unpruned votes
   plus its done uids.  The done uids travel as a floor
   plus the few above it, so the replies cost the same after 3 s of a
   steady stream as after 1 s (3704 bytes each); shipped one by one they
   grew with the run (18088 and 50104 bytes).  A wrapped handler on every
   acceptor adds up the P1b bytes. *)
let test_mring_p1b_size_independent_of_run_length () =
  let p1b_bytes kill_at =
    let bytes = ref 0 in
    let env, _, _ =
      steady_stream ~every:5.0e-4
        ~on_start:(fun _ mr ->
          Array.iter
            (fun p ->
              let inner = Simnet.handler_of p in
              Simnet.set_handler p (fun m ->
                  if Ringpaxos.Mring.Testing.is_p1b m.payload then bytes := !bytes + m.size;
                  inner m))
            (Ringpaxos.Mring.acceptor_procs mr))
        ()
    in
    Sim.Engine.run env.engine ~until:kill_at;
    let before = !bytes in
    Ringpaxos.Mring.kill_coordinator env.mr;
    Sim.Engine.run env.engine ~until:(kill_at +. 1.0);
    !bytes - before
  in
  let early = p1b_bytes 1.0 and late = p1b_bytes 3.0 in
  Alcotest.(check bool) (Printf.sprintf "a Phase 1 ran (%d bytes)" early) true (early > 0);
  Alcotest.(check bool)
    (Printf.sprintf "P1b bytes after 3 s (%d) within 25%% of after 1 s (%d)" late early)
    true
    (float_of_int late <= 1.25 *. float_of_int early)

(* --- U-Ring Paxos --------------------------------------------------------- *)

type uring_env = {
  uengine : Sim.Engine.t;
  unet : Simnet.t;
  ur : Ringpaxos.Uring.t;
  useqs : (int, int list ref) Hashtbl.t;
}

let make_uring ?(config = Ringpaxos.Uring.default_config) ?(n = 5) ?(seed = 21) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create seed in
  let net = Simnet.create engine rng in
  let useqs = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    Hashtbl.replace useqs i (ref [])
  done;
  let deliver ~learner ~inst:_ v =
    let r = Hashtbl.find useqs learner in
    r := List.rev_append (cmd_ids v) !r
  in
  let ur =
    Ringpaxos.Uring.create net config ~positions:(Ringpaxos.Uring.standard_positions ~n)
      ~deliver
  in
  { uengine = engine; unet = net; ur; useqs }

let useq env l = List.rev !(Hashtbl.find env.useqs l)

let test_uring_basic () =
  let env = make_uring () in
  for i = 1 to 40 do
    ignore (Ringpaxos.Uring.submit env.ur ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run env.uengine ~until:0.5;
  Alcotest.(check (list int)) "all delivered in order" (List.init 40 (fun i -> i + 1))
    (useq env 0)

let test_uring_all_learners_agree () =
  let env = make_uring ~n:7 () in
  for i = 1 to 30 do
    ignore (Ringpaxos.Uring.submit env.ur ~proposer:(i mod 7) ~size:256 (Cmd i))
  done;
  Sim.Engine.run env.uengine ~until:0.6;
  let s0 = useq env 0 in
  Alcotest.(check int) "everything delivered" 30 (List.length s0);
  for l = 1 to 6 do
    Alcotest.(check (list int)) (Printf.sprintf "learner %d agrees" l) s0 (useq env l)
  done

let test_uring_rejects_small_rings () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create 1) in
  Alcotest.check_raises "needs 2f+1 acceptors"
    (Invalid_argument "Uring.create: needs at least 2f+1 acceptor positions") (fun () ->
      ignore
        (Ringpaxos.Uring.create net Ringpaxos.Uring.default_config
           ~positions:(Ringpaxos.Uring.standard_positions ~n:3)
           ~deliver:(fun ~learner:_ ~inst:_ _ -> ())))

let test_uring_batching () =
  let env = make_uring () in
  for i = 1 to 200 do
    ignore (Ringpaxos.Uring.submit env.ur ~proposer:0 ~size:256 (Cmd i))
  done;
  Sim.Engine.run env.uengine ~until:0.5;
  Alcotest.(check int) "all items" 200 (List.length (useq env 0));
  Alcotest.(check bool) "few instances (32K batches)" true (Ringpaxos.Uring.decided env.ur <= 8)

let test_uring_coordinator_failover () =
  let env = make_uring ~n:7 () in
  for i = 1 to 10 do
    ignore (Ringpaxos.Uring.submit env.ur ~proposer:2 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.uengine ~until:0.3;
  Ringpaxos.Uring.kill_coordinator env.ur;
  Sim.Engine.run env.uengine ~until:2.0;
  for i = 11 to 20 do
    ignore (Ringpaxos.Uring.submit env.ur ~proposer:2 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.uengine ~until:4.0;
  (* Learner 2 was never killed; it must have everything exactly once
     modulo resubmission duplicates, which U-Ring suppresses by uid. *)
  let got = List.sort_uniq compare (useq env 2) in
  Alcotest.(check (list int)) "all commands survive" (List.init 20 (fun i -> i + 1)) got

let test_uring_middle_failure () =
  let env = make_uring ~n:7 () in
  for i = 1 to 10 do
    ignore (Ringpaxos.Uring.submit env.ur ~proposer:2 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.uengine ~until:0.3;
  (* Kill a non-coordinator, non-voting ring member. *)
  Ringpaxos.Uring.kill_position env.ur 5;
  Sim.Engine.run env.uengine ~until:2.0;
  for i = 11 to 20 do
    ignore (Ringpaxos.Uring.submit env.ur ~proposer:2 ~size:128 (Cmd i))
  done;
  Sim.Engine.run env.uengine ~until:4.0;
  let got = List.sort_uniq compare (useq env 2) in
  Alcotest.(check (list int)) "ring reconfigures around dead member"
    (List.init 20 (fun i -> i + 1))
    got

let prop_mring_total_order =
  QCheck.Test.make ~name:"mring: random load keeps total order" ~count:15
    QCheck.(pair (int_range 1 80) (int_range 1 3))
    (fun (n_cmds, n_props) ->
      let env = make_mring ~n_proposers:n_props ~n_learners:3 ~seed:(n_cmds * 7) () in
      for i = 1 to n_cmds do
        ignore
          (Ringpaxos.Mring.submit env.mr ~proposer:(i mod n_props) ~size:(64 + (i mod 1024))
             (Cmd i))
      done;
      Sim.Engine.run env.engine ~until:2.0;
      let s0 = seq env 0 and s1 = seq env 1 and s2 = seq env 2 in
      List.length s0 = n_cmds && s0 = s1 && s1 = s2)

let prop_uring_total_order =
  QCheck.Test.make ~name:"uring: random load keeps total order" ~count:15
    QCheck.(int_range 1 80)
    (fun n_cmds ->
      let env = make_uring ~n:5 ~seed:(n_cmds * 13) () in
      for i = 1 to n_cmds do
        ignore (Ringpaxos.Uring.submit env.ur ~proposer:(i mod 5) ~size:(64 + (i mod 1024)) (Cmd i))
      done;
      Sim.Engine.run env.uengine ~until:2.0;
      let s0 = useq env 0 in
      List.length s0 = n_cmds
      && List.for_all (fun l -> useq env l = s0) [ 1; 2; 3; 4 ])

let suite =
  [ Alcotest.test_case "mring: basic order + agreement" `Quick test_mring_basic;
    Alcotest.test_case "mring: batching" `Quick test_mring_batching;
    Alcotest.test_case "mring: ring size = f+1" `Quick test_mring_ring_size;
    Alcotest.test_case "mring: multiple proposers" `Quick test_mring_multi_proposer;
    Alcotest.test_case "mring: speculative delivery" `Quick test_mring_speculative_before_decision;
    Alcotest.test_case "mring: partitioned skip" `Quick test_mring_partitioned_skip;
    Alcotest.test_case "mring: cross-partition order" `Quick test_mring_cross_partition_total_order;
    Alcotest.test_case "mring: flow control shrinks window" `Quick
      test_mring_flow_control_shrinks_window;
    Alcotest.test_case "mring: window recovers" `Quick test_mring_window_recovers;
    Alcotest.test_case "mring: coordinator failover" `Quick test_mring_coordinator_failover;
    Alcotest.test_case "mring: acceptor failover via spare" `Quick test_mring_acceptor_failover;
    Alcotest.test_case "mring: sync disk throttles" `Quick test_mring_sync_disk_slower;
    Alcotest.test_case "mring: gc frees memory" `Quick test_mring_gc_frees_memory;
    Alcotest.test_case "mring: buffer counters fall on gc and delivery" `Quick
      test_mring_mem_counters_fall;
    QCheck_alcotest.to_alcotest prop_mring_mem_counters;
    Alcotest.test_case "mring: reconfigure under load" `Quick test_mring_reconfigure_under_load;
    Alcotest.test_case "mring: joiner catches up" `Quick test_mring_joiner_catches_up;
    Alcotest.test_case "mring: coordinator handoff" `Quick test_mring_coordinator_handoff;
    Alcotest.test_case "mring: staged learner delivers suffix" `Quick
      test_mring_staged_learner_delivers_suffix;
    Alcotest.test_case "mring: learner removal stops at boundary" `Quick
      test_mring_learner_removal_stops_at_boundary;
    Alcotest.test_case "mring: per-instance allocation bound" `Quick
      test_mring_instance_allocation;
    Alcotest.test_case "mring: a nominal stream resubmits nothing" `Quick
      test_mring_nominal_stream_no_resubmission;
    Alcotest.test_case "mring: decisions acknowledge proposers" `Quick
      test_mring_decisions_ack_proposers;
    QCheck_alcotest.to_alcotest prop_mring_total_order;
    Alcotest.test_case "mring: dedup state is bounded" `Quick test_mring_dedup_state_bounded;
    Alcotest.test_case "mring: P1b size does not depend on run length" `Quick
      test_mring_p1b_size_independent_of_run_length;
    Alcotest.test_case "uring: basic order" `Quick test_uring_basic;
    Alcotest.test_case "uring: all learners agree" `Quick test_uring_all_learners_agree;
    Alcotest.test_case "uring: rejects small rings" `Quick test_uring_rejects_small_rings;
    Alcotest.test_case "uring: batching" `Quick test_uring_batching;
    Alcotest.test_case "uring: coordinator failover" `Quick test_uring_coordinator_failover;
    Alcotest.test_case "uring: middle member failure" `Quick test_uring_middle_failure;
    QCheck_alcotest.to_alcotest prop_uring_total_order ]
