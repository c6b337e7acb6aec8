(* Chaos scenarios.  Each runner builds a fresh engine + network, wires a
   Safety auditor into the protocol's delivery callback using app-level
   command ids (uniform across protocols, independent of internal uids),
   draws a fault schedule from the injector's seeded rng, runs to the
   horizon and returns the verdict.  Determinism: creation order is fixed,
   the injector's dice never touch the network's rng, and every schedule
   draw comes from the injector's schedule stream. *)

type Simnet.payload += Cmd of int
type Simnet.payload += SmrCmd of { op_id : int; client : int; write : int option }

type outcome = {
  protocol : string;
  seed : int;
  ok : bool;
  summary : string;
  violations : string list;
  events : (float * string) list;
}

let protocols =
  [ "mring"; "mring-pressure"; "mring-reconfig"; "mring-join"; "uring"; "multiring";
    "multiring-reconfig"; "spaxos"; "lcr"; "smr"; "kv-lease" ]

let mk_env seed =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create (0x5EED0 + seed)) in
  (engine, net)

let cmd_ids (v : Paxos.Value.t) =
  List.filter_map
    (fun (it : Paxos.Value.item) -> match it.app with Cmd i -> Some i | _ -> None)
    v.items

(* Open-loop load: [submit] fires every [period] until [until]. *)
let drive net ~until ~period submit =
  let stop = Simnet.every net ~period (fun () -> if Simnet.now net < until then submit ()) in
  ignore (Simnet.after net (until +. period) (fun () -> stop ()))

let pick rng lo hi = lo +. Sim.Rng.float rng (hi -. lo)

(* Per-link constant extra delay: unlike per-message jitter this keeps
   TCP FIFO order within the episode, so it stays inside the fault model
   of the purely-unicast protocols. *)
let link_lag inj ~at ~dur ~max_lag label =
  let rng = Injector.sched_rng inj in
  let lags = Hashtbl.create 64 in
  Injector.custom inj ~at ~dur label ~decide:(fun (m : Simnet.msg) ~dst ->
      let k = (m.src, Simnet.pid dst) in
      let lag =
        match Hashtbl.find_opt lags k with
        | Some l -> l
        | None ->
            let l = Sim.Rng.float rng max_lag in
            Hashtbl.add lags k l;
            l
      in
      if lag > 0.0 then Simnet.Delay lag else Simnet.Deliver)

let mcast_only (m : Simnet.msg) ~dst:_ = m.dst = -1

let finish ~protocol ~seed ~(verdict : Safety.verdict) ~events ~extra =
  let delivered =
    String.concat ";" (Array.to_list (Array.map string_of_int verdict.delivered))
  in
  { protocol;
    seed;
    ok = verdict.ok;
    summary = Printf.sprintf "bcast=%d dlv=[%s]%s" verdict.broadcast delivered extra;
    violations = verdict.violations;
    events }

(* --- M-Ring Paxos --------------------------------------------------------- *)

(* Fault classes (all inside the §3.3 fault model): acceptor crash —
   coordinator included — with restart under Async_disk (seed parity picks
   the durability mode; Memory-mode crashes are fail-stop, §3.3.5),
   a learner partition healed before quiescence (exercises the §3.3.4
   retransmission protocol), multicast drop/duplicate/jitter, slow CPU. *)
let run_mring ~seed ~duration () =
  let _engine, net = mk_env seed in
  let durable = seed land 1 = 0 in
  let cfg =
    { Ringpaxos.Mring.default_config with
      f = 2;
      durability = (if durable then Ringpaxos.Mring.Async_disk else Ringpaxos.Mring.Memory) }
  in
  let aud = Safety.create ~name:"mring" ~n_learners:2 in
  let deliver ~learner ~inst:_ = function
    | Some v -> List.iter (fun i -> Safety.delivered aud ~learner i) (cmd_ids v)
    | None -> ()
  in
  let mr =
    Ringpaxos.Mring.create net cfg ~n_proposers:2 ~n_learners:2
      ~learner_parts:(fun _ -> [ 0 ])
      ~deliver
  in
  let inj = Injector.create net ~seed:((seed * 7919) + 257) in
  let rng = Injector.sched_rng inj in
  let next = ref 0 in
  drive net ~until:(0.6 *. duration) ~period:1.0e-3 (fun () ->
      incr next;
      let id = !next in
      if Ringpaxos.Mring.submit mr ~proposer:(id mod 2) ~size:256 (Cmd id) >= 0 then
        Safety.broadcast aud id);
  let t0 = 0.15 *. duration and t1 = 0.65 *. duration in
  (* 1. acceptor crash (any of the 2f+1, so sometimes the coordinator). *)
  let accs = Ringpaxos.Mring.acceptor_procs mr in
  let victim = Sim.Rng.int rng (Array.length accs) in
  let tc = pick rng t0 (0.45 *. duration) in
  Injector.at inj tc (fun () ->
      Injector.note inj (Printf.sprintf "crash(acc%d)" victim);
      Ringpaxos.Mring.crash_acceptor mr victim);
  if durable then begin
    let tr = tc +. pick rng (0.1 *. duration) (0.25 *. duration) in
    Injector.at inj tr (fun () ->
        Injector.note inj (Printf.sprintf "restart(acc%d)" victim);
        Ringpaxos.Mring.restart_acceptor mr victim)
  end;
  (* 2. multicast chaos episode. *)
  Injector.rule inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng 0.2 0.5)
    ~drop:(pick rng 0.02 0.10)
    ~dup:0.02 ~jitter:2.0e-4 ~applies:mcast_only "mcast-chaos";
  (* 3. partition one learner from everyone, then heal. *)
  let lp = Sim.Rng.int rng 2 in
  let lpid = Simnet.pid (Ringpaxos.Mring.learner_proc mr lp) in
  let rest =
    List.filter
      (fun p -> p <> lpid)
      (List.concat
         [ Array.to_list (Array.map Simnet.pid accs);
           List.init 2 (fun i -> Simnet.pid (Ringpaxos.Mring.learner_proc mr i));
           List.init 2 (fun i -> Simnet.pid (Ringpaxos.Mring.proposer_proc mr i)) ])
  in
  Injector.partition inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng 0.15 0.35)
    ~group_a:[ lpid ] ~group_b:rest
    (Printf.sprintf "learner%d" lp);
  (* 4. slow CPU on the other learner's machine. *)
  Injector.slow_cpu inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng 0.3 0.6)
    ~factor:(pick rng 2.0 4.0)
    (Simnet.proc_node (Ringpaxos.Mring.learner_proc mr (1 - lp)));
  Sim.Engine.run (Simnet.engine net) ~until:duration;
  let verdict = Safety.verdict aud in
  finish ~protocol:"mring" ~seed ~verdict ~events:(Injector.events inj)
    ~extra:(Printf.sprintf " drops=%d" (Injector.drops inj))

(* --- M-Ring under receive-buffer pressure --------------------------------- *)

(* Crash-recovery accounting scenario.  Small acceptor receive buffers and
   a real per-message service cost keep [rcvbuf_used] high, so an acceptor
   dies with bytes still in service and with P2b/heartbeat traffic queued
   on its outgoing connections.  Before the epoch guards landed in
   [Simnet], the stale decrements landing after [recover] drove the buffer
   gauge negative (masking overload drops from then on) and the crashed
   sender's connection backlog replayed into the ring.  The run checks the
   gauge invariant explicitly: at quiescence no acceptor's [rcvbuf_used]
   may be negative.  Durability is Async_disk unconditionally so every
   seed replays a crash + restart. *)
let run_mring_pressure ~seed ~duration () =
  let _engine, net = mk_env seed in
  let cfg =
    { Ringpaxos.Mring.default_config with
      f = 2;
      durability = Ringpaxos.Mring.Async_disk }
  in
  let aud = Safety.create ~name:"mring-pressure" ~n_learners:2 in
  let deliver ~learner ~inst:_ = function
    | Some v -> List.iter (fun i -> Safety.delivered aud ~learner i) (cmd_ids v)
    | None -> ()
  in
  let mr =
    Ringpaxos.Mring.create net cfg ~n_proposers:2 ~n_learners:2
      ~learner_parts:(fun _ -> [ 0 ])
      ~deliver
  in
  let accs = Ringpaxos.Mring.acceptor_procs mr in
  Array.iter
    (fun p ->
      Simnet.set_rcvbuf p (64 * 1024);
      (Simnet.costs_of p).recv_per_msg <- 8.0e-5)
    accs;
  let inj = Injector.create net ~seed:((seed * 7919) + 263) in
  let rng = Injector.sched_rng inj in
  let next = ref 0 in
  drive net ~until:(0.6 *. duration) ~period:2.5e-4 (fun () ->
      incr next;
      let id = !next in
      if Ringpaxos.Mring.submit mr ~proposer:(id mod 2) ~size:2048 (Cmd id) >= 0 then
        Safety.broadcast aud id);
  let victim = Sim.Rng.int rng (Array.length accs) in
  let tc = pick rng (0.15 *. duration) (0.45 *. duration) in
  (* Slow the victim's machine ahead of the crash so a service queue (and
     so a non-zero buffer gauge) is standing when the kill lands. *)
  Injector.slow_cpu inj
    ~at:(tc -. (0.1 *. duration))
    ~dur:(0.12 *. duration)
    ~factor:(pick rng 20.0 40.0)
    (Simnet.proc_node accs.(victim));
  Injector.at inj tc (fun () ->
      Injector.note inj (Printf.sprintf "crash(acc%d)" victim);
      Ringpaxos.Mring.crash_acceptor mr victim);
  let trs = tc +. pick rng (0.05 *. duration) (0.2 *. duration) in
  Injector.at inj trs (fun () ->
      Injector.note inj (Printf.sprintf "restart(acc%d)" victim);
      Ringpaxos.Mring.restart_acceptor mr victim);
  Sim.Engine.run (Simnet.engine net) ~until:duration;
  let verdict = Safety.verdict aud in
  let gauge_violations =
    Array.to_list accs
    |> List.mapi (fun i p -> (i, Simnet.rcvbuf_used p))
    |> List.filter (fun (_, used) -> used < 0)
    |> List.map (fun (i, used) ->
           Printf.sprintf "mring-pressure: rcvbuf gauge negative on acc%d (%d)" i used)
  in
  let o =
    finish ~protocol:"mring-pressure" ~seed ~verdict ~events:(Injector.events inj)
      ~extra:(Printf.sprintf " drops=%d" (Injector.drops inj))
  in
  { o with
    ok = o.ok && gauge_violations = [];
    violations = o.violations @ gauge_violations }

(* --- M-Ring dynamic reconfiguration ---------------------------------------- *)

(* Ring reconfiguration under chaos: grow the pool with a fresh acceptor
   and stage a fresh learner, then reconfigure twice mid-run — first to a
   ring of survivors led by a former spare (retiring one founding member),
   then to a ring containing the newcomer while activating the staged
   learner.  The founding coordinator is crashed a random instant after
   the first command is submitted, so across seeds the crash lands before
   the proposal, mid-drain, or just after activation — the
   kill-the-coordinator-mid-handoff race of the reconfiguration protocol.
   Multicast chaos overlaps the handoff window.  On top of the auditor's
   agreement/order checks the scenario asserts validity (both original
   learners deliver every accepted command by the horizon) and that at
   least one epoch activated. *)
let run_mring_reconfig ~seed ~duration () =
  let _engine, net = mk_env seed in
  let cfg = { Ringpaxos.Mring.default_config with f = 2 } in
  let aud = Safety.create ~name:"mring-reconfig" ~n_learners:2 in
  let deliver ~learner ~inst:_ = function
    (* The learner added mid-run delivers only its epoch's suffix, so it
       stays outside the auditor's full-history agreement check. *)
    | Some v when learner < 2 ->
        List.iter (fun i -> Safety.delivered aud ~learner i) (cmd_ids v)
    | _ -> ()
  in
  let mr =
    Ringpaxos.Mring.create net cfg ~n_proposers:2 ~n_learners:2
      ~learner_parts:(fun _ -> [ 0 ])
      ~deliver
  in
  let joiner = Ringpaxos.Mring.add_acceptor mr in
  let new_lrn = Ringpaxos.Mring.stage_learner mr ~parts:[ 0 ] in
  let inj = Injector.create net ~seed:((seed * 7919) + 264) in
  let rng = Injector.sched_rng inj in
  let next = ref 0 in
  drive net ~until:(0.6 *. duration) ~period:1.0e-3 (fun () ->
      incr next;
      let id = !next in
      if Ringpaxos.Mring.submit mr ~proposer:(id mod 2) ~size:256 (Cmd id) >= 0 then
        Safety.broadcast aud id);
  (* Initial ring is [0; 1; 2] with acc2 coordinating; accs 3,4 are spares,
     [joiner] = 5 is the newcomer. *)
  let tr1 = pick rng (0.15 *. duration) (0.3 *. duration) in
  Injector.at inj tr1 (fun () ->
      Injector.note inj "reconfig1([1;4;3] -acc0)";
      ignore (Ringpaxos.Mring.reconfigure mr ~retire:[ 0 ] ~ring:[ 1; 4; 3 ] ()));
  (* Crash the founding coordinator somewhere inside the handoff window. *)
  Injector.at inj (tr1 +. pick rng 0.0 0.02) (fun () ->
      Injector.note inj "crash(acc2)";
      Ringpaxos.Mring.crash_acceptor mr 2);
  Injector.rule inj ~at:tr1 ~dur:(pick rng 0.2 0.4)
    ~drop:(pick rng 0.02 0.08)
    ~dup:0.02 ~jitter:2.0e-4 ~applies:mcast_only "mcast-chaos";
  let tr2 = pick rng (0.45 *. duration) (0.55 *. duration) in
  Injector.at inj tr2 (fun () ->
      Injector.note inj "reconfig2([4;5;3] +lrn2)";
      ignore
        (Ringpaxos.Mring.reconfigure mr ~add_learners:[ new_lrn ]
           ~ring:[ 4; joiner; 3 ] ()));
  Sim.Engine.run (Simnet.engine net) ~until:duration;
  let verdict = Safety.verdict aud in
  let validity =
    List.concat_map
      (fun l ->
        if verdict.delivered.(l) <> verdict.broadcast then
          [ Printf.sprintf "mring-reconfig: learner %d delivered %d of %d accepted commands"
              l verdict.delivered.(l) verdict.broadcast ]
        else [])
      [ 0; 1 ]
  in
  let epochs =
    if Ringpaxos.Mring.epoch mr < 1 then
      [ Printf.sprintf "mring-reconfig: no epoch activated by the horizon (epoch=%d)"
          (Ringpaxos.Mring.epoch mr) ]
    else []
  in
  let o =
    finish ~protocol:"mring-reconfig" ~seed ~verdict ~events:(Injector.events inj)
      ~extra:
        (Printf.sprintf " epoch=%d ring=[%s]" (Ringpaxos.Mring.epoch mr)
           (String.concat ";" (List.map string_of_int (Ringpaxos.Mring.membership mr))))
  in
  { o with
    ok = o.ok && validity = [] && epochs = [];
    violations = o.violations @ validity @ epochs }

(* Joining-acceptor catch-up under chaos: a fresh acceptor is elected into
   the ring and must replay the decided prefix below the activation
   instance through gap repair — while a partition cuts it off mid-way
   (healed before the horizon) and multicast drop/dup/jitter corrupts the
   repair traffic itself.  Asserts that catch-up completes, an epoch
   activated, and both learners deliver every accepted command. *)
let run_mring_join ~seed ~duration () =
  let _engine, net = mk_env seed in
  let cfg = { Ringpaxos.Mring.default_config with f = 1 } in
  let aud = Safety.create ~name:"mring-join" ~n_learners:2 in
  let deliver ~learner ~inst:_ = function
    | Some v -> List.iter (fun i -> Safety.delivered aud ~learner i) (cmd_ids v)
    | None -> ()
  in
  let mr =
    Ringpaxos.Mring.create net cfg ~n_proposers:2 ~n_learners:2
      ~learner_parts:(fun _ -> [ 0 ])
      ~deliver
  in
  let joiner = Ringpaxos.Mring.add_acceptor mr in
  let inj = Injector.create net ~seed:((seed * 7919) + 265) in
  let rng = Injector.sched_rng inj in
  let next = ref 0 in
  drive net ~until:(0.6 *. duration) ~period:1.0e-3 (fun () ->
      incr next;
      let id = !next in
      if Ringpaxos.Mring.submit mr ~proposer:(id mod 2) ~size:256 (Cmd id) >= 0 then
        Safety.broadcast aud id);
  (* Initial ring [0; 1], coordinator acc1, spare acc2; [joiner] = 3 enters
     the ring (keeping acc1 as coordinator) and catches up. *)
  let tr = pick rng (0.2 *. duration) (0.35 *. duration) in
  Injector.at inj tr (fun () ->
      Injector.note inj "reconfig([3;1])";
      ignore (Ringpaxos.Mring.reconfigure mr ~ring:[ joiner; 1 ] ()));
  (* Partition the joiner mid-catch-up, heal before the horizon. *)
  let jpid = Simnet.pid (Ringpaxos.Mring.acceptor_procs mr).(joiner) in
  let rest =
    List.concat
      [ List.init 3 (fun i -> Simnet.pid (Ringpaxos.Mring.acceptor_procs mr).(i));
        List.init 2 (fun i -> Simnet.pid (Ringpaxos.Mring.learner_proc mr i));
        List.init 2 (fun i -> Simnet.pid (Ringpaxos.Mring.proposer_proc mr i)) ]
  in
  Injector.partition inj
    ~at:(tr +. pick rng 0.01 0.05)
    ~dur:(pick rng 0.1 0.2)
    ~group_a:[ jpid ] ~group_b:rest "joiner";
  Injector.rule inj
    ~at:(pick rng (0.15 *. duration) (0.65 *. duration))
    ~dur:(pick rng 0.2 0.5)
    ~drop:(pick rng 0.02 0.10)
    ~dup:0.02 ~jitter:2.0e-4 ~applies:mcast_only "mcast-chaos";
  Sim.Engine.run (Simnet.engine net) ~until:duration;
  let verdict = Safety.verdict aud in
  let extra_violations =
    List.concat
      [ (if Ringpaxos.Mring.catching_up mr joiner then
           [ "mring-join: joiner still catching up at the horizon" ]
         else []);
        (if Ringpaxos.Mring.epoch mr < 1 then
           [ "mring-join: no epoch activated by the horizon" ]
         else []);
        List.concat_map
          (fun l ->
            if verdict.delivered.(l) <> verdict.broadcast then
              [ Printf.sprintf "mring-join: learner %d delivered %d of %d accepted commands"
                  l verdict.delivered.(l) verdict.broadcast ]
            else [])
          [ 0; 1 ] ]
  in
  let o =
    finish ~protocol:"mring-join" ~seed ~verdict ~events:(Injector.events inj)
      ~extra:
        (Printf.sprintf " epoch=%d catchup=%b" (Ringpaxos.Mring.epoch mr)
           (Ringpaxos.Mring.catching_up mr joiner))
  in
  { o with
    ok = o.ok && extra_violations = [];
    violations = o.violations @ extra_violations }

(* --- U-Ring Paxos --------------------------------------------------------- *)

(* U-Ring's model excludes message loss (no learner gap repair; decisions
   circulate once), so its chaos is fail-stop only: up to f position
   kills, per-link constant lag (preserves TCP FIFO) and slow CPU. *)
let run_uring ~seed ~duration () =
  let _engine, net = mk_env seed in
  let n = 5 in
  let cfg = { Ringpaxos.Uring.default_config with f = 2 } in
  let aud = Safety.create ~name:"uring" ~n_learners:n in
  let ur =
    Ringpaxos.Uring.create net cfg
      ~positions:(Ringpaxos.Uring.standard_positions ~n)
      ~deliver:(fun ~learner ~inst:_ v ->
        List.iter (fun i -> Safety.delivered aud ~learner i) (cmd_ids v))
  in
  let inj = Injector.create net ~seed:((seed * 7919) + 258) in
  let rng = Injector.sched_rng inj in
  let next = ref 0 in
  drive net ~until:(0.6 *. duration) ~period:1.0e-3 (fun () ->
      incr next;
      let id = !next in
      (* Submit through a live proposer; a dead one would silently eat it. *)
      let rec alive_from p k =
        if k = 0 then None
        else if Simnet.is_alive (Ringpaxos.Uring.proposer_proc ur p) then Some p
        else alive_from ((p + 1) mod n) (k - 1)
      in
      match alive_from (id mod n) n with
      | Some p ->
          ignore (Ringpaxos.Uring.submit ur ~proposer:p ~size:256 (Cmd id));
          Safety.broadcast aud id
      | None -> ());
  let t0 = 0.15 *. duration and t1 = 0.65 *. duration in
  let kills = 1 + Sim.Rng.int rng 2 in
  let victims = Array.init n Fun.id in
  Sim.Rng.shuffle rng victims;
  for k = 0 to kills - 1 do
    let v = victims.(k) in
    Injector.at inj (pick rng t0 (0.5 *. duration)) (fun () ->
        Injector.note inj (Printf.sprintf "kill(pos%d)" v);
        Ringpaxos.Uring.kill_position ur v)
  done;
  link_lag inj ~at:(pick rng t0 t1) ~dur:(pick rng 0.2 0.5) ~max_lag:2.0e-4 "link-lag";
  Injector.slow_cpu inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng 0.3 0.6)
    ~factor:(pick rng 2.0 3.0)
    (Simnet.proc_node (Ringpaxos.Uring.position_proc ur victims.(n - 1)));
  Sim.Engine.run (Simnet.engine net) ~until:duration;
  let alive =
    List.filter
      (fun l -> Simnet.is_alive (Ringpaxos.Uring.learner_proc ur l))
      (List.init n Fun.id)
  in
  let verdict = Safety.verdict ~alive aud in
  finish ~protocol:"uring" ~seed ~verdict ~events:(Injector.events inj)
    ~extra:(Printf.sprintf " killed=%d" kills)

(* --- Multi-Ring Paxos ------------------------------------------------------ *)

(* Two rings (f = 1 each), both learners subscribe to both groups, so the
   deterministic merge must agree everywhere.  Faults: one ring
   coordinator kill (§5's Fig. 5.11 scenario), multicast chaos, slow CPU
   on a learner machine.  The skip controller keeps the idle group moving. *)
let run_multiring ~seed ~duration () =
  let _engine, net = mk_env seed in
  let cfg =
    { Multiring.default_config with
      ring = { Ringpaxos.Mring.default_config with f = 1 };
      n_rings = 2;
      lambda = 2000.0;
      delta = 5.0e-3;
      m = 2 }
  in
  let aud = Safety.create ~name:"multiring" ~n_learners:2 in
  let mr =
    Multiring.create net cfg ~n_learners:2
      ~subs:(fun _ -> [ 0; 1 ])
      ~proposers_per_ring:1
      ~deliver:(fun ~learner ~group:_ _ app ->
        match app with Cmd i -> Safety.delivered aud ~learner i | _ -> ())
  in
  let inj = Injector.create net ~seed:((seed * 7919) + 259) in
  let rng = Injector.sched_rng inj in
  let next = ref 0 in
  drive net ~until:(0.6 *. duration) ~period:1.0e-3 (fun () ->
      incr next;
      let id = !next in
      if Multiring.multicast mr ~group:(id mod 2) ~proposer:0 ~size:256 (Cmd id) >= 0 then
        Safety.broadcast aud id);
  let t0 = 0.15 *. duration and t1 = 0.65 *. duration in
  let ring = Sim.Rng.int rng 2 in
  Injector.at inj (pick rng t0 (0.45 *. duration)) (fun () ->
      Injector.note inj (Printf.sprintf "kill_coord(ring%d)" ring);
      Multiring.kill_ring_coordinator mr ring);
  Injector.rule inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng 0.2 0.4)
    ~drop:(pick rng 0.02 0.08)
    ~dup:0.02 ~jitter:2.0e-4 ~applies:mcast_only "mcast-chaos";
  Injector.slow_cpu inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng 0.3 0.5)
    ~factor:(pick rng 2.0 3.0)
    (Simnet.proc_node (Multiring.learner_proc mr (Sim.Rng.int rng 2)));
  Sim.Engine.run (Simnet.engine net) ~until:duration;
  let verdict = Safety.verdict aud in
  finish ~protocol:"multiring" ~seed ~verdict ~events:(Injector.events inj)
    ~extra:(Printf.sprintf " skips=%d" (Multiring.skips_proposed mr ring))

(* --- Multi-Ring reconfiguration -------------------------------------------- *)

(* Per-ring reconfiguration under the deterministic merge: one of the two
   rings swaps its coordinator for a spare mid-run (on odd seeds the old
   coordinator is additionally crashed inside the handoff window), with
   multicast chaos overlapping.  Both learners subscribe to both groups,
   so any skew the reconfiguring ring introduces — lost skip slots, a
   stalled group, a duplicated boundary instance — surfaces as a merge
   disagreement or stall at the auditor.  Asserts the ring's epoch
   advanced by the horizon. *)
let run_multiring_reconfig ~seed ~duration () =
  let _engine, net = mk_env seed in
  let cfg =
    { Multiring.default_config with
      ring = { Ringpaxos.Mring.default_config with f = 1 };
      n_rings = 2;
      lambda = 2000.0;
      delta = 5.0e-3;
      m = 2 }
  in
  let aud = Safety.create ~name:"multiring-reconfig" ~n_learners:2 in
  let mr =
    Multiring.create net cfg ~n_learners:2
      ~subs:(fun _ -> [ 0; 1 ])
      ~proposers_per_ring:1
      ~deliver:(fun ~learner ~group:_ _ app ->
        match app with Cmd i -> Safety.delivered aud ~learner i | _ -> ())
  in
  let inj = Injector.create net ~seed:((seed * 7919) + 266) in
  let rng = Injector.sched_rng inj in
  let next = ref 0 in
  drive net ~until:(0.6 *. duration) ~period:1.0e-3 (fun () ->
      incr next;
      let id = !next in
      if Multiring.multicast mr ~group:(id mod 2) ~proposer:0 ~size:256 (Cmd id) >= 0 then
        Safety.broadcast aud id);
  let t0 = 0.15 *. duration and t1 = 0.65 *. duration in
  (* Each ring starts as [0; 1] with acc1 coordinating and acc2 spare:
     promote the spare to coordinator of the chosen ring. *)
  let ring = Sim.Rng.int rng 2 in
  let tr = pick rng t0 (0.4 *. duration) in
  Injector.at inj tr (fun () ->
      Injector.note inj (Printf.sprintf "reconfig(ring%d:[0;2])" ring);
      ignore (Multiring.reconfigure_ring mr ring ~ring:[ 0; 2 ]));
  if seed land 1 = 1 then
    Injector.at inj (tr +. pick rng 0.0 0.02) (fun () ->
        Injector.note inj (Printf.sprintf "kill_coord(ring%d)" ring);
        Multiring.kill_ring_coordinator mr ring);
  Injector.rule inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng 0.2 0.4)
    ~drop:(pick rng 0.02 0.08)
    ~dup:0.02 ~jitter:2.0e-4 ~applies:mcast_only "mcast-chaos";
  Sim.Engine.run (Simnet.engine net) ~until:duration;
  let verdict = Safety.verdict aud in
  let epochs =
    if Multiring.ring_epoch mr ring < 1 then
      [ Printf.sprintf "multiring-reconfig: ring %d epoch did not advance" ring ]
    else []
  in
  let o =
    finish ~protocol:"multiring-reconfig" ~seed ~verdict ~events:(Injector.events inj)
      ~extra:
        (Printf.sprintf " epoch=%d skips=%d" (Multiring.ring_epoch mr ring)
           (Multiring.skips_proposed mr ring))
  in
  { o with ok = o.ok && epochs = []; violations = o.violations @ epochs }

(* --- S-Paxos ---------------------------------------------------------------- *)

let run_spaxos ~seed ~duration () =
  let _engine, net = mk_env seed in
  let cfg = Abcast.Spaxos.default_config in
  let n = (2 * cfg.f) + 1 in
  let aud = Safety.create ~name:"spaxos" ~n_learners:n in
  let sp =
    Abcast.Spaxos.create net cfg ~deliver:(fun ~learner v ->
        List.iter (fun i -> Safety.delivered aud ~learner i) (cmd_ids v))
  in
  let inj = Injector.create net ~seed:((seed * 7919) + 260) in
  let rng = Injector.sched_rng inj in
  let next = ref 0 in
  drive net ~until:(0.6 *. duration) ~period:1.0e-3 (fun () ->
      incr next;
      let id = !next in
      let rec alive_from p k =
        if k = 0 then None
        else if Simnet.is_alive (Abcast.Spaxos.replica_proc sp p) then Some p
        else alive_from ((p + 1) mod n) (k - 1)
      in
      match alive_from (id mod n) n with
      | Some p ->
          if Abcast.Spaxos.submit sp ~replica:p ~size:256 (Cmd id) then
            Safety.broadcast aud id
      | None -> ());
  let t0 = 0.15 *. duration in
  Injector.at inj (pick rng t0 (0.45 *. duration)) (fun () ->
      Injector.note inj "kill_leader";
      Abcast.Spaxos.kill_leader sp);
  link_lag inj
    ~at:(pick rng t0 (0.65 *. duration))
    ~dur:(pick rng 0.2 0.4) ~max_lag:2.0e-4 "link-lag";
  Sim.Engine.run (Simnet.engine net) ~until:duration;
  let alive =
    List.filter
      (fun l -> Simnet.is_alive (Abcast.Spaxos.replica_proc sp l))
      (List.init n Fun.id)
  in
  let verdict = Safety.verdict ~alive aud in
  finish ~protocol:"spaxos" ~seed ~verdict ~events:(Injector.events inj) ~extra:""

(* --- LCR -------------------------------------------------------------------- *)

(* LCR assumes perfect failure detection; one member is killed and the
   oracle reconfigures the ring (messages in transit may be lost — the
   model's documented weakness, so validity is not asserted).  Agreement
   and total order must still hold among the survivors. *)
let run_lcr ~seed ~duration () =
  let _engine, net = mk_env seed in
  let cfg = Abcast.Lcr.default_config in
  let n = cfg.n in
  let aud = Safety.create ~name:"lcr" ~n_learners:n in
  let lcr =
    Abcast.Lcr.create net cfg ~deliver:(fun ~learner v ->
        List.iter (fun i -> Safety.delivered aud ~learner i) (cmd_ids v))
  in
  let inj = Injector.create net ~seed:((seed * 7919) + 261) in
  let rng = Injector.sched_rng inj in
  let next = ref 0 in
  drive net ~until:(0.6 *. duration) ~period:1.0e-3 (fun () ->
      incr next;
      let id = !next in
      let rec alive_from p k =
        if k = 0 then None
        else if Simnet.is_alive (Abcast.Lcr.proc lcr p) then Some p
        else alive_from ((p + 1) mod n) (k - 1)
      in
      match alive_from (id mod n) n with
      | Some p ->
          if Abcast.Lcr.broadcast lcr ~from:p ~size:256 (Cmd id) then
            Safety.broadcast aud id
      | None -> ());
  let t0 = 0.15 *. duration in
  let victim = Sim.Rng.int rng n in
  Injector.at inj (pick rng t0 (0.45 *. duration)) (fun () ->
      Injector.note inj (Printf.sprintf "kill(%d)" victim);
      Abcast.Lcr.kill lcr victim);
  link_lag inj
    ~at:(pick rng t0 (0.65 *. duration))
    ~dur:(pick rng 0.2 0.4) ~max_lag:2.0e-4 "link-lag";
  Sim.Engine.run (Simnet.engine net) ~until:duration;
  let alive =
    List.filter (fun l -> Simnet.is_alive (Abcast.Lcr.proc lcr l)) (List.init n Fun.id)
  in
  let verdict = Safety.verdict ~alive aud in
  finish ~protocol:"lcr" ~seed ~verdict ~events:(Injector.events inj) ~extra:""

(* --- SMR register linearizability ------------------------------------------ *)

(* A single-register SMR over M-Ring (f = 1): two replica-learners apply
   writes in delivery order; two clients issue reads and writes open-loop,
   every op through the ring (reads execute at the client's designated
   replica when the command is applied there).  Every write value is
   unique, so a duplicated or reordered apply surfaces as a
   non-linearizable read.  Faults: coordinator kill + multicast chaos. *)
let run_smr ~seed ~duration () =
  let _engine, net = mk_env seed in
  let cfg = { Ringpaxos.Mring.default_config with f = 1 } in
  let reg = Array.make 2 None in
  (* op_id -> (client, inv, write, completion) *)
  let ops : (int, int * float * int option * (float * int option) option ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let deliver ~learner ~inst:_ = function
    | None -> ()
    | Some (v : Paxos.Value.t) ->
        List.iter
          (fun (it : Paxos.Value.item) ->
            match it.app with
            | SmrCmd { op_id; client; write } ->
                (match write with Some x -> reg.(learner) <- Some x | None -> ());
                if learner = client mod 2 then begin
                  match Hashtbl.find_opt ops op_id with
                  | Some (_, _, _, ({ contents = None } as slot)) ->
                      slot := Some (Simnet.now net, reg.(learner))
                  | _ -> ()
                end
            | _ -> ())
          v.items
  in
  let mr =
    Ringpaxos.Mring.create net cfg ~n_proposers:2 ~n_learners:2
      ~learner_parts:(fun _ -> [ 0 ])
      ~deliver
  in
  let inj = Injector.create net ~seed:((seed * 7919) + 262) in
  let rng = Injector.sched_rng inj in
  let opc = Sim.Rng.split rng in
  let next_op = ref 0 in
  let client_tick client () =
    incr next_op;
    let op_id = !next_op in
    let write = if Sim.Rng.bool opc 0.5 then Some op_id else None in
    if
      Ringpaxos.Mring.submit mr ~proposer:client ~size:128
        (SmrCmd { op_id; client; write })
      >= 0
    then Hashtbl.add ops op_id (client, Simnet.now net, write, ref None)
  in
  drive net ~until:(0.6 *. duration) ~period:0.12 (client_tick 0);
  ignore
    (Simnet.after net 0.06 (fun () ->
         drive net ~until:(0.6 *. duration) ~period:0.12 (client_tick 1)));
  let t0 = 0.15 *. duration in
  Injector.at inj (pick rng t0 (0.45 *. duration)) (fun () ->
      Injector.note inj "kill_coordinator";
      Ringpaxos.Mring.kill_coordinator mr);
  Injector.rule inj
    ~at:(pick rng t0 (0.6 *. duration))
    ~dur:(pick rng 0.2 0.4)
    ~drop:(pick rng 0.02 0.08)
    ~jitter:2.0e-4 ~applies:mcast_only "mcast-chaos";
  Sim.Engine.run (Simnet.engine net) ~until:duration;
  (* Build the history: completed ops respond at their apply time; a
     pending write may already have taken effect, so it stays in the
     history with the horizon as its response time; pending reads carry
     no information and are dropped. *)
  let history =
    Hashtbl.fold
      (fun _op_id (_, inv, write, slot) acc ->
        match (!slot, write) with
        | Some (res, obs), None -> { Smr.Linearizability.kind = `Read obs; inv; res } :: acc
        | Some (res, _), Some x -> { Smr.Linearizability.kind = `Write x; inv; res } :: acc
        | None, Some x -> { Smr.Linearizability.kind = `Write x; inv; res = duration } :: acc
        | None, None -> acc)
      ops []
  in
  let completed = List.length (List.filter (fun (o : Smr.Linearizability.op) -> o.res < duration) history) in
  let lin = Smr.Linearizability.check ~init:None history in
  { protocol = "smr";
    seed;
    ok = lin;
    summary =
      Printf.sprintf "ops=%d completed=%d linearizable=%b" (Hashtbl.length ops) completed lin;
    violations = (if lin then [] else [ "smr: history is not linearizable" ]);
    events = Injector.events inj }

(* --- replicated KV with the lease read tier -------------------------------- *)

(* The lease tier's dangerous windows, under chaos:

   1. the current {e lease holders} are partitioned away mid-lease, so
      conflicting writes cannot collect their acknowledgements and must
      respond through the lease-expiry deadline;
   2. a revocation window where the acknowledgements themselves are lost
      (KWAck drop episode), again forcing the deadline path;
   3. a light multicast chaos episode over the ordered log.

   All faults heal by 80 % of the run.  The verdict layers the ordered-log
   auditor (agreement / no-dup / no-creation over KOp + KGrant uids,
   deliveries filtered to broadcast uids because learners also see skip
   items) with the KV-level oracles: the recorded read/write history must
   be linearizable — local lease reads included — replicas must converge
   to identical trees, and every deferred write response must have drained
   by the horizon. *)
let run_kv_lease ~seed ~duration () =
  let _engine, net = mk_env seed in
  let n_replicas = 3 and n_clients = 2 in
  let cfg =
    { Kv.default_config with
      n_replicas;
      leases = true;
      lease_dur = 0.1;
      lease_backoff = 0.05;
      read_timeout = 0.05;
      initial_keys = 0;
      key_range = 64;
      record_history = true }
  in
  let aud = Safety.create ~name:"kv-lease" ~n_learners:n_replicas in
  let known = Hashtbl.create 1024 in
  let sys =
    Kv.create net cfg ~n_clients
      ~on_broadcast:(fun ~uid ->
        Hashtbl.replace known uid ();
        Safety.broadcast aud uid)
      ~on_deliver:(fun ~replica ~uid ->
        if Hashtbl.mem known uid then Safety.delivered aud ~learner:replica uid)
  in
  let inj = Injector.create net ~seed:((seed * 7919) + 267) in
  let rng = Injector.sched_rng inj in
  let wl =
    Smr.Workload.Open_loop.create
      ~ops:[ (Smr.Workload.Open_loop.Read, 50); (Smr.Workload.Open_loop.Update, 50) ]
      ~dist:(Smr.Workload.Open_loop.Zipf 0.99)
      (Sim.Rng.create (0xCAFE + seed))
      ~key_range:cfg.Kv.key_range
      ~rate:(Smr.Workload.Open_loop.Constant 250.0)
  in
  Kv.start_open sys wl ~until:(0.6 *. duration);
  let t0 = 0.15 *. duration and t1 = 0.55 *. duration in
  (* 1. cut a lease holder off mid-lease (its reads and their responses
     still route, so clients see timeouts, not silence); healed well
     before quiescence so gap repair catches the replica up. *)
  let victim = Sim.Rng.int rng n_replicas in
  let vpid = Simnet.pid (Kv.replica_proc sys victim) in
  let rest =
    List.filter
      (fun p -> p <> vpid)
      (List.concat
         [ List.init n_replicas (fun r -> Simnet.pid (Kv.replica_proc sys r));
           List.init n_clients (fun c -> Simnet.pid (Kv.client_proc sys c)) ])
  in
  Injector.partition inj
    ~at:(pick rng t0 (0.35 *. duration))
    ~dur:(pick rng (0.1 *. duration) (0.2 *. duration))
    ~group_a:[ vpid ] ~group_b:rest
    (Printf.sprintf "lease-holder%d" victim);
  (* 2. lose the revocation acknowledgements themselves for a window:
     every deferred write in it must fall back to the lease deadline. *)
  Injector.rule inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng (0.1 *. duration) (0.2 *. duration))
    ~drop:1.0
    ~applies:(fun (m : Simnet.msg) ~dst:_ ->
      match m.payload with Kv.KWAck _ -> true | _ -> false)
    "wack-loss";
  (* 3. light multicast chaos over the ordered log. *)
  Injector.rule inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng 0.2 0.4)
    ~drop:(pick rng 0.02 0.06)
    ~dup:0.02 ~jitter:2.0e-4 ~applies:mcast_only "mcast-chaos";
  Sim.Engine.run (Simnet.engine net) ~until:duration;
  let verdict = Safety.verdict aud in
  let fingerprint_violations =
    let f0 = Kv.state_fingerprint_at sys 0 in
    List.concat_map
      (fun r ->
        if Kv.state_fingerprint_at sys r <> f0 then
          [ Printf.sprintf "kv-lease: replica %d diverged from replica 0" r ]
        else [])
      (List.init (n_replicas - 1) (fun i -> i + 1))
  in
  let kv_violations =
    List.concat
      [ (if Kv.check_history sys then []
         else [ "kv-lease: history is not linearizable" ]);
        fingerprint_violations;
        (if Kv.pending_writes sys > 0 then
           [ Printf.sprintf "kv-lease: %d write responses never drained"
               (Kv.pending_writes sys) ]
         else []);
        (if Kv.counter sys "kv_lease_grants" = 0 then
           [ "kv-lease: no lease grants flowed" ]
         else []);
        (if Kv.counter sys "kv_local_reads" + Kv.counter sys "kv_local_nacks" = 0
         then [ "kv-lease: lease read tier never exercised" ]
         else []) ]
  in
  let o =
    finish ~protocol:"kv-lease" ~seed ~verdict ~events:(Injector.events inj)
      ~extra:
        (Printf.sprintf " local=%d nack=%d deadline=%d grants=%d lin=%b"
           (Kv.counter sys "kv_local_reads")
           (Kv.counter sys "kv_local_nacks")
           (Kv.counter sys "kv_deadline_responses")
           (Kv.counter sys "kv_lease_grants")
           (Kv.check_history sys))
  in
  { o with
    ok = o.ok && kv_violations = [];
    violations = o.violations @ kv_violations }

(* --- dispatch --------------------------------------------------------------- *)

let run_one ~protocol ~seed ~duration () =
  match protocol with
  | "mring" -> run_mring ~seed ~duration ()
  | "mring-pressure" -> run_mring_pressure ~seed ~duration ()
  | "mring-reconfig" -> run_mring_reconfig ~seed ~duration ()
  | "mring-join" -> run_mring_join ~seed ~duration ()
  | "uring" -> run_uring ~seed ~duration ()
  | "multiring" -> run_multiring ~seed ~duration ()
  | "multiring-reconfig" -> run_multiring_reconfig ~seed ~duration ()
  | "spaxos" -> run_spaxos ~seed ~duration ()
  | "lcr" -> run_lcr ~seed ~duration ()
  | "smr" -> run_smr ~seed ~duration ()
  | "kv-lease" -> run_kv_lease ~seed ~duration ()
  | p -> invalid_arg ("Chaos.run_one: unknown protocol " ^ p)

let pp_events events =
  let shown = List.filteri (fun i _ -> i < 8) events in
  let frags = List.map (fun (t, l) -> Printf.sprintf "%.2f:%s" t l) shown in
  let suffix = if List.length events > 8 then ";..." else "" in
  String.concat ";" frags ^ suffix

let run_all ~protocols:ps ~seeds ~duration () =
  let failures = ref 0 in
  List.iter
    (fun protocol ->
      for seed = 0 to seeds - 1 do
        let o = run_one ~protocol ~seed ~duration () in
        if not o.ok then incr failures;
        Printf.printf "chaos %-10s seed %02d  %-4s %s  faults=[%s]\n" o.protocol o.seed
          (if o.ok then "ok" else "FAIL")
          o.summary (pp_events o.events);
        List.iter (fun v -> Printf.printf "    violation: %s\n" v) o.violations;
        flush stdout
      done)
    ps;
  Printf.printf "chaos: %d/%d runs ok\n%!"
    ((List.length ps * seeds) - !failures)
    (List.length ps * seeds);
  !failures
