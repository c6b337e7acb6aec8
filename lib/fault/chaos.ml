(* Chaos scenarios.  One harness ([run]) builds a fresh engine, network
   and injector per run, hands the scenario body its environment, runs to
   the horizon and turns the body's report into an outcome.  Bodies wire a
   Safety auditor into the protocol's delivery callback using app-level
   command ids (uniform across protocols, independent of internal uids)
   and draw their fault schedule from the injector's seeded rng.
   Determinism: creation order is fixed, the injector's dice never touch
   the network's rng, and every schedule draw comes from the injector's
   schedule stream in call-site order.  OCaml evaluates arguments right
   to left, so a [pick] moved out of an argument list (or into a helper)
   can silently reorder a schedule; the golden digests pin that order. *)

module Mring = Ringpaxos.Mring
module Uring = Ringpaxos.Uring
module Lin = Smr.Linearizability
module OL = Smr.Workload.Open_loop

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

(* What a scenario body sees, and what it reports after the run. *)
type env = {
  name : string;
  seed : int;
  duration : float;
  net : Simnet.t;
  inj : Injector.t;
  rng : Sim.Rng.t;  (* the injector's schedule stream *)
}

type report = { ok : bool; summary : string; violations : string list }

let sprintf = Printf.sprintf
let pick rng lo hi = lo +. Sim.Rng.float rng (hi -. lo)
let violation_if cond msg = if cond then [ msg ] else []

(* Open-loop load: [submit] fires every [period] until [until]. *)
let drive net ~until ~period submit =
  let stop = Simnet.every net ~period (fun () -> if Simnet.now net < until then submit ()) in
  ignore (Simnet.after net (until +. period) (fun () -> stop ()))

(* Command stream: ids 1, 2, ... go to [submit] every [period] until 60 %
   of the run; each one [submit] accepts is recorded as broadcast. *)
let commands env aud ?(period = 1.0e-3) submit =
  let next = ref 0 in
  drive env.net ~until:(0.6 *. env.duration) ~period (fun () ->
      incr next;
      if submit !next then Safety.broadcast aud !next)

(* Feed a delivered value's commands to the auditor. *)
let record aud ~learner (v : Paxos.Value.t) =
  List.iter
    (fun (it : Paxos.Value.item) ->
      match it.app with Cmd i -> Safety.delivered aud ~learner i | _ -> ())
    v.items

(* The first live member of [0, n) at or after [p], cyclically: a dead
   one would silently eat a submission. *)
let first_alive ~n proc p =
  let rec go p k =
    if k = 0 then None
    else if Simnet.is_alive (proc p) then Some p
    else go ((p + 1) mod n) (k - 1)
  in
  go p n

let alive ~n proc = List.filter (fun l -> Simnet.is_alive (proc l)) (List.init n Fun.id)
let others pid pids = List.filter (fun p -> p <> pid) pids

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

let mcast_chaos ?(dup = 0.02) inj ~at ~dur ~drop =
  Injector.rule inj ~at ~dur ~drop ~dup ~jitter:2.0e-4 ~applies:mcast_only "mcast-chaos"

(* The auditor's verdict merged with scenario-specific [checks], each a
   violation. *)
let audited ?(checks = []) (v : Safety.verdict) extra =
  let dlv = String.concat ";" (Array.to_list (Array.map string_of_int v.delivered)) in
  { ok = v.ok && checks = [];
    summary = sprintf "bcast=%d dlv=[%s]%s" v.broadcast dlv extra;
    violations = v.violations @ checks }

(* Validity: both founding learners delivered every accepted command. *)
let all_delivered name (v : Safety.verdict) =
  List.concat_map
    (fun l ->
      violation_if (v.delivered.(l) <> v.broadcast)
        (sprintf "%s: learner %d delivered %d of %d accepted commands" name l v.delivered.(l)
           v.broadcast))
    [ 0; 1 ]

(* Every fault heals by this fraction of the run, whatever the horizon:
   fault durations are absolute seconds while start times scale with it,
   so without the clamp a short run would leave the agreement check less
   than a fifth of the run to converge in. *)
let heal_frac = 0.8

let run ~name ~salt body ~seed ~duration =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create (0x5EED0 + seed)) in
  let inj = Injector.create ~heal_by:(heal_frac *. duration) net ~seed:((seed * 7919) + salt) in
  let report = body { name; seed; duration; net; inj; rng = Injector.sched_rng inj } in
  Sim.Engine.run engine ~until:duration;
  let r = report () in
  { protocol = name; seed; ok = r.ok; summary = r.summary; violations = r.violations;
    events = Injector.events inj }

(* --- M-Ring Paxos --------------------------------------------------------- *)

(* Two proposers and two learners, all on partition 0. *)
let new_mring net cfg deliver =
  Mring.create net cfg ~n_proposers:2 ~n_learners:2 ~learner_parts:(fun _ -> [ 0 ]) ~deliver

(* A learner added mid-run (index 2 up) delivers only its epoch's suffix,
   so it stays outside the auditor's full-history agreement check. *)
let audited_mring net aud cfg =
  new_mring net cfg (fun ~learner ~inst:_ -> function
    | Some v when learner < 2 -> record aud ~learner v
    | _ -> ())

let mring_submit mr ~size id = Mring.submit mr ~proposer:(id mod 2) ~size (Cmd id) >= 0

let mring_pids mr =
  List.concat
    [ Array.to_list (Array.map Simnet.pid (Mring.acceptor_procs mr));
      List.init 2 (fun i -> Simnet.pid (Mring.learner_proc mr i));
      List.init 2 (fun i -> Simnet.pid (Mring.proposer_proc mr i)) ]

(* Seed parity picks the durability mode: Memory-mode crashes are
   fail-stop (§3.3.5), so only Async_disk restarts the victim.  The
   learner partition exercises the §3.3.4 retransmission protocol. *)
let mring_chaos ({ net; inj; rng; duration; name; seed } as env) =
  let durable = seed land 1 = 0 in
  let aud = Safety.create ~name ~n_learners:2 in
  let mr =
    audited_mring net aud
      { Mring.default_config with
        f = 2;
        durability = (if durable then Mring.Async_disk else Mring.Memory) }
  in
  commands env aud (mring_submit mr ~size:256);
  let t0 = 0.15 *. duration and t1 = 0.65 *. duration in
  (* 1. acceptor crash (any of the 2f+1, so sometimes the coordinator). *)
  let accs = Mring.acceptor_procs mr in
  let victim = Sim.Rng.int rng (Array.length accs) in
  let tc = pick rng t0 (0.45 *. duration) in
  Injector.at inj tc (sprintf "crash(acc%d)" victim) (fun () -> Mring.crash_acceptor mr victim);
  if durable then
    Injector.heal_at inj
      (tc +. pick rng (0.1 *. duration) (0.25 *. duration))
      (sprintf "restart(acc%d)" victim)
      (fun () -> Mring.restart_acceptor mr victim);
  (* 2. multicast chaos episode. *)
  mcast_chaos inj ~at:(pick rng t0 t1) ~dur:(pick rng 0.2 0.5) ~drop:(pick rng 0.02 0.10);
  (* 3. partition one learner from everyone, then heal. *)
  let lp = Sim.Rng.int rng 2 in
  let lpid = Simnet.pid (Mring.learner_proc mr lp) in
  Injector.partition inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng 0.15 0.35)
    ~group_a:[ lpid ] ~group_b:(others lpid (mring_pids mr))
    (sprintf "learner%d" lp);
  (* 4. slow CPU on the other learner's machine. *)
  Injector.slow_cpu inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng 0.3 0.6)
    ~factor:(pick rng 2.0 4.0)
    (Simnet.proc_node (Mring.learner_proc mr (1 - lp)));
  fun () -> audited (Safety.verdict aud) (sprintf " drops=%d" (Injector.drops inj))

(* Small acceptor receive buffers and a real per-message service cost keep
   [rcvbuf_used] high, so the victim dies with bytes still in service and
   traffic queued on its outgoing connections; at quiescence no
   acceptor's gauge may be negative. *)
let mring_pressure ({ net; inj; rng; duration; name; _ } as env) =
  let aud = Safety.create ~name ~n_learners:2 in
  let mr =
    audited_mring net aud { Mring.default_config with f = 2; durability = Mring.Async_disk }
  in
  let accs = Mring.acceptor_procs mr in
  Array.iter
    (fun p ->
      Simnet.set_rcvbuf p (64 * 1024);
      (Simnet.costs_of p).recv_per_msg <- 8.0e-5)
    accs;
  commands env aud ~period:2.5e-4 (mring_submit mr ~size:2048);
  let victim = Sim.Rng.int rng (Array.length accs) in
  let tc = pick rng (0.15 *. duration) (0.45 *. duration) in
  (* Slow the victim's machine ahead of the crash so a service queue (and
     so a non-zero buffer gauge) is standing when the kill lands. *)
  Injector.slow_cpu inj
    ~at:(tc -. (0.1 *. duration))
    ~dur:(0.12 *. duration)
    ~factor:(pick rng 20.0 40.0)
    (Simnet.proc_node accs.(victim));
  Injector.at inj tc (sprintf "crash(acc%d)" victim) (fun () -> Mring.crash_acceptor mr victim);
  Injector.heal_at inj
    (tc +. pick rng (0.05 *. duration) (0.2 *. duration))
    (sprintf "restart(acc%d)" victim)
    (fun () -> Mring.restart_acceptor mr victim);
  fun () ->
    let gauge i p =
      let used = Simnet.rcvbuf_used p in
      violation_if (used < 0) (sprintf "%s: rcvbuf gauge negative on acc%d (%d)" name i used)
    in
    audited (Safety.verdict aud)
      ~checks:(List.concat (List.mapi gauge (Array.to_list accs)))
      (sprintf " drops=%d" (Injector.drops inj))

(* The founding coordinator is crashed a random instant after the first
   reconfiguration is submitted, so across seeds the crash lands before
   the proposal, mid-drain or just after activation. *)
let mring_reconfig ({ net; inj; rng; duration; name; _ } as env) =
  let aud = Safety.create ~name ~n_learners:2 in
  let mr = audited_mring net aud { Mring.default_config with f = 2 } in
  let joiner = Mring.add_acceptor mr in
  let new_lrn = Mring.stage_learner mr ~parts:[ 0 ] in
  commands env aud (mring_submit mr ~size:256);
  (* Initial ring is [0; 1; 2] with acc2 coordinating; accs 3,4 are spares,
     [joiner] = 5 is the newcomer. *)
  let tr1 = pick rng (0.15 *. duration) (0.3 *. duration) in
  Injector.at inj tr1 "reconfig1([1;4;3] -acc0)" (fun () ->
      ignore (Mring.reconfigure mr ~retire:[ 0 ] ~ring:[ 1; 4; 3 ] ()));
  Injector.at inj (tr1 +. pick rng 0.0 0.02) "crash(acc2)" (fun () -> Mring.crash_acceptor mr 2);
  mcast_chaos inj ~at:tr1 ~dur:(pick rng 0.2 0.4) ~drop:(pick rng 0.02 0.08);
  let tr2 = pick rng (0.45 *. duration) (0.55 *. duration) in
  Injector.at inj tr2 "reconfig2([4;5;3] +lrn2)" (fun () ->
      ignore (Mring.reconfigure mr ~add_learners:[ new_lrn ] ~ring:[ 4; joiner; 3 ] ()));
  fun () ->
    let v = Safety.verdict aud in
    let epoch = Mring.epoch mr in
    audited v
      ~checks:
        (all_delivered name v
        @ violation_if (epoch < 1)
            (sprintf "%s: no epoch activated by the horizon (epoch=%d)" name epoch))
      (sprintf " epoch=%d ring=[%s]" epoch
         (String.concat ";" (List.map string_of_int (Mring.membership mr))))

(* A fresh acceptor elected into the ring replays the decided prefix
   through gap repair while a partition cuts it off mid-way. *)
let mring_join ({ net; inj; rng; duration; name; _ } as env) =
  let aud = Safety.create ~name ~n_learners:2 in
  let mr = audited_mring net aud { Mring.default_config with f = 1 } in
  let joiner = Mring.add_acceptor mr in
  commands env aud (mring_submit mr ~size:256);
  (* Initial ring [0; 1], coordinator acc1, spare acc2; [joiner] = 3 enters
     the ring (keeping acc1 as coordinator) and catches up. *)
  let tr = pick rng (0.2 *. duration) (0.35 *. duration) in
  Injector.at inj tr "reconfig([3;1])" (fun () ->
      ignore (Mring.reconfigure mr ~ring:[ joiner; 1 ] ()));
  let jpid = Simnet.pid (Mring.acceptor_procs mr).(joiner) in
  Injector.partition inj
    ~at:(tr +. pick rng 0.01 0.05)
    ~dur:(pick rng 0.1 0.2)
    ~group_a:[ jpid ] ~group_b:(others jpid (mring_pids mr))
    "joiner";
  mcast_chaos inj
    ~at:(pick rng (0.15 *. duration) (0.65 *. duration))
    ~dur:(pick rng 0.2 0.5)
    ~drop:(pick rng 0.02 0.10);
  fun () ->
    let v = Safety.verdict aud in
    let catchup = Mring.catching_up mr joiner and epoch = Mring.epoch mr in
    audited v
      ~checks:
        (violation_if catchup (name ^ ": joiner still catching up at the horizon")
        @ violation_if (epoch < 1) (name ^ ": no epoch activated by the horizon")
        @ all_delivered name v)
      (sprintf " epoch=%d catchup=%b" epoch catchup)

(* --- U-Ring Paxos --------------------------------------------------------- *)

let uring_chaos ({ net; inj; rng; duration; name; _ } as env) =
  let n = 5 in
  let aud = Safety.create ~name ~n_learners:n in
  let ur =
    Uring.create net { Uring.default_config with f = 2 }
      ~positions:(Uring.standard_positions ~n)
      ~deliver:(fun ~learner ~inst:_ v -> record aud ~learner v)
  in
  commands env aud (fun id ->
      match first_alive ~n (Uring.proposer_proc ur) (id mod n) with
      | Some p ->
          ignore (Uring.submit ur ~proposer:p ~size:256 (Cmd id));
          true
      | None -> false);
  let t0 = 0.15 *. duration and t1 = 0.65 *. duration in
  let kills = 1 + Sim.Rng.int rng 2 in
  let victims = Array.init n Fun.id in
  Sim.Rng.shuffle rng victims;
  for k = 0 to kills - 1 do
    let v = victims.(k) in
    Injector.at inj (pick rng t0 (0.5 *. duration)) (sprintf "kill(pos%d)" v) (fun () ->
        Uring.kill_position ur v)
  done;
  link_lag inj ~at:(pick rng t0 t1) ~dur:(pick rng 0.2 0.5) ~max_lag:2.0e-4 "link-lag";
  Injector.slow_cpu inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng 0.3 0.6)
    ~factor:(pick rng 2.0 3.0)
    (Simnet.proc_node (Uring.position_proc ur victims.(n - 1)));
  fun () ->
    audited
      (Safety.verdict ~alive:(alive ~n (Uring.learner_proc ur)) aud)
      (sprintf " killed=%d" kills)

(* --- Multi-Ring Paxos ------------------------------------------------------ *)

(* Two rings (f = 1 each); both learners subscribe to both groups, so the
   deterministic merge must agree everywhere.  The skip controller keeps
   the idle group moving. *)
let audited_multiring net aud =
  let cfg =
    { Multiring.default_config with
      ring = { Mring.default_config with f = 1 };
      n_rings = 2;
      lambda = 2000.0;
      delta = 5.0e-3;
      m = 2 }
  in
  Multiring.create net cfg ~n_learners:2
    ~subs:(fun _ -> [ 0; 1 ])
    ~proposers_per_ring:1
    ~deliver:(fun ~learner ~group:_ _ app ->
      match app with Cmd i -> Safety.delivered aud ~learner i | _ -> ())

let multiring_submit mr id =
  Multiring.multicast mr ~group:(id mod 2) ~proposer:0 ~size:256 (Cmd id) >= 0

let multiring_chaos ({ net; inj; rng; duration; name; _ } as env) =
  let aud = Safety.create ~name ~n_learners:2 in
  let mr = audited_multiring net aud in
  commands env aud (multiring_submit mr);
  let t0 = 0.15 *. duration and t1 = 0.65 *. duration in
  let ring = Sim.Rng.int rng 2 in
  Injector.at inj (pick rng t0 (0.45 *. duration)) (sprintf "kill_coord(ring%d)" ring) (fun () ->
      Multiring.kill_ring_coordinator mr ring);
  mcast_chaos inj ~at:(pick rng t0 t1) ~dur:(pick rng 0.2 0.4) ~drop:(pick rng 0.02 0.08);
  Injector.slow_cpu inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng 0.3 0.5)
    ~factor:(pick rng 2.0 3.0)
    (Simnet.proc_node (Multiring.learner_proc mr (Sim.Rng.int rng 2)));
  fun () -> audited (Safety.verdict aud) (sprintf " skips=%d" (Multiring.skips_proposed mr ring))

(* Any skew the reconfiguring ring introduces — lost skip slots, a stalled
   group, a duplicated boundary instance — surfaces as a merge
   disagreement or stall at the auditor. *)
let multiring_reconfig ({ net; inj; rng; duration; name; seed } as env) =
  let aud = Safety.create ~name ~n_learners:2 in
  let mr = audited_multiring net aud in
  commands env aud (multiring_submit mr);
  let t0 = 0.15 *. duration and t1 = 0.65 *. duration in
  (* Each ring starts as [0; 1] with acc1 coordinating and acc2 spare:
     promote the spare to coordinator of the chosen ring. *)
  let ring = Sim.Rng.int rng 2 in
  let tr = pick rng t0 (0.4 *. duration) in
  Injector.at inj tr (sprintf "reconfig(ring%d:[0;2])" ring) (fun () ->
      ignore (Multiring.reconfigure_ring mr ring ~ring:[ 0; 2 ]));
  if seed land 1 = 1 then
    Injector.at inj (tr +. pick rng 0.0 0.02) (sprintf "kill_coord(ring%d)" ring) (fun () ->
        Multiring.kill_ring_coordinator mr ring);
  mcast_chaos inj ~at:(pick rng t0 t1) ~dur:(pick rng 0.2 0.4) ~drop:(pick rng 0.02 0.08);
  fun () ->
    let epoch = Multiring.ring_epoch mr ring in
    audited (Safety.verdict aud)
      ~checks:(violation_if (epoch < 1) (sprintf "%s: ring %d epoch did not advance" name ring))
      (sprintf " epoch=%d skips=%d" epoch (Multiring.skips_proposed mr ring))

(* --- S-Paxos and LCR --------------------------------------------------------- *)

let spaxos_chaos ({ net; inj; rng; duration; name; _ } as env) =
  let cfg = Abcast.Spaxos.default_config in
  let n = (2 * cfg.f) + 1 in
  let aud = Safety.create ~name ~n_learners:n in
  let sp = Abcast.Spaxos.create net cfg ~deliver:(record aud) in
  commands env aud (fun id ->
      match first_alive ~n (Abcast.Spaxos.replica_proc sp) (id mod n) with
      | Some p -> Abcast.Spaxos.submit sp ~replica:p ~size:256 (Cmd id)
      | None -> false);
  let t0 = 0.15 *. duration in
  Injector.at inj (pick rng t0 (0.45 *. duration)) "kill_leader" (fun () ->
      Abcast.Spaxos.kill_leader sp);
  link_lag inj
    ~at:(pick rng t0 (0.65 *. duration))
    ~dur:(pick rng 0.2 0.4) ~max_lag:2.0e-4 "link-lag";
  fun () -> audited (Safety.verdict ~alive:(alive ~n (Abcast.Spaxos.replica_proc sp)) aud) ""

(* LCR assumes perfect failure detection: messages in transit at a kill
   may be lost (the model's documented weakness), so the verdict counts
   only the survivors. *)
let lcr_chaos ({ net; inj; rng; duration; name; _ } as env) =
  let cfg = Abcast.Lcr.default_config in
  let n = cfg.n in
  let aud = Safety.create ~name ~n_learners:n in
  let lcr = Abcast.Lcr.create net cfg ~deliver:(record aud) in
  commands env aud (fun id ->
      match first_alive ~n (Abcast.Lcr.proc lcr) (id mod n) with
      | Some p -> Abcast.Lcr.broadcast lcr ~from:p ~size:256 (Cmd id)
      | None -> false);
  let t0 = 0.15 *. duration in
  let victim = Sim.Rng.int rng n in
  Injector.at inj (pick rng t0 (0.45 *. duration)) (sprintf "kill(%d)" victim) (fun () ->
      Abcast.Lcr.kill lcr victim);
  link_lag inj
    ~at:(pick rng t0 (0.65 *. duration))
    ~dur:(pick rng 0.2 0.4) ~max_lag:2.0e-4 "link-lag";
  fun () -> audited (Safety.verdict ~alive:(alive ~n (Abcast.Lcr.proc lcr)) aud) ""

(* --- SMR register linearizability ------------------------------------------ *)

(* Two replica-learners apply writes in delivery order; two clients issue
   reads and writes open-loop, every op through the ring (a read executes
   at the client's designated replica when the command is applied
   there).  Every write value is unique, so a duplicated or reordered
   apply surfaces as a non-linearizable read. *)
let smr_register { net; inj; rng; duration; name; _ } =
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
  let mr = new_mring net { Mring.default_config with f = 1 } deliver in
  let opc = Sim.Rng.split rng in
  let next_op = ref 0 in
  let client_tick client () =
    incr next_op;
    let op_id = !next_op in
    let write = if Sim.Rng.bool opc 0.5 then Some op_id else None in
    if Mring.submit mr ~proposer:client ~size:128 (SmrCmd { op_id; client; write }) >= 0 then
      Hashtbl.add ops op_id (client, Simnet.now net, write, ref None)
  in
  drive net ~until:(0.6 *. duration) ~period:0.12 (client_tick 0);
  ignore
    (Simnet.after net 0.06 (fun () ->
         drive net ~until:(0.6 *. duration) ~period:0.12 (client_tick 1)));
  let t0 = 0.15 *. duration in
  Injector.at inj (pick rng t0 (0.45 *. duration)) "kill_coordinator" (fun () ->
      Mring.kill_coordinator mr);
  mcast_chaos ~dup:0.0 inj
    ~at:(pick rng t0 (0.6 *. duration))
    ~dur:(pick rng 0.2 0.4)
    ~drop:(pick rng 0.02 0.08);
  fun () ->
    (* Completed ops respond at their apply time; a pending write may
       already have taken effect, so it stays in the history with the
       horizon as its response time; pending reads carry no information
       and are dropped. *)
    let history =
      Hashtbl.fold
        (fun _op_id (_, inv, write, slot) acc ->
          match (!slot, write) with
          | Some (res, obs), None -> { Lin.kind = `Read obs; inv; res } :: acc
          | Some (res, _), Some x -> { Lin.kind = `Write x; inv; res } :: acc
          | None, Some x -> { Lin.kind = `Write x; inv; res = duration } :: acc
          | None, None -> acc)
        ops []
    in
    let completed = List.length (List.filter (fun (o : Lin.op) -> o.res < duration) history) in
    let lin = Lin.check ~init:None history in
    { ok = lin;
      summary = sprintf "ops=%d completed=%d linearizable=%b" (Hashtbl.length ops) completed lin;
      violations = violation_if (not lin) (name ^ ": history is not linearizable") }

(* --- replicated KV with the lease read tier -------------------------------- *)

(* The verdict layers the ordered-log auditor (over KOp + KGrant uids,
   deliveries filtered to broadcast uids because learners also see skip
   items) with the KV-level oracles.  All faults heal by 80 % of the run. *)
let kv_lease { net; inj; rng; duration; name; seed } =
  let n_replicas = 3 and n_clients = 2 in
  let cfg =
    { Kv.default_config with
      n_replicas;
      leases = true;
      lease_dur = 0.1;
      read_timeout = 0.05;
      initial_keys = 0;
      key_range = 64;
      record_history = true }
  in
  let aud = Safety.create ~name ~n_learners:n_replicas in
  let known = Hashtbl.create 1024 in
  let sys =
    Kv.create net cfg ~n_clients
      ~on_broadcast:(fun ~uid ->
        Hashtbl.replace known uid ();
        Safety.broadcast aud uid)
      ~on_deliver:(fun ~replica ~uid ->
        if Hashtbl.mem known uid then Safety.delivered aud ~learner:replica uid)
  in
  let wl =
    OL.create
      ~ops:[ (OL.Read, 50); (OL.Update, 50) ]
      ~dist:(OL.Zipf 0.99)
      (Sim.Rng.create (0xCAFE + seed))
      ~key_range:cfg.Kv.key_range ~rate:(OL.Constant 250.0)
  in
  Kv.start_open sys wl ~until:(0.6 *. duration);
  let t0 = 0.15 *. duration and t1 = 0.55 *. duration in
  (* 1. cut a lease holder off mid-lease (its reads and their responses
     still route, so clients see timeouts, not silence); healed well
     before quiescence so gap repair catches the replica up. *)
  let victim = Sim.Rng.int rng n_replicas in
  let vpid = Simnet.pid (Kv.replica_proc sys victim) in
  let pids =
    List.init n_replicas (fun r -> Simnet.pid (Kv.replica_proc sys r))
    @ List.init n_clients (fun c -> Simnet.pid (Kv.client_proc sys c))
  in
  Injector.partition inj
    ~at:(pick rng t0 (0.35 *. duration))
    ~dur:(pick rng (0.1 *. duration) (0.2 *. duration))
    ~group_a:[ vpid ] ~group_b:(others vpid pids)
    (sprintf "lease-holder%d" victim);
  (* 2. lose the revocation confirmations themselves for a window: a
     write deferred on a lost one falls back to the lease deadline, or to
     the holder's next confirmation. *)
  Injector.rule inj
    ~at:(pick rng t0 t1)
    ~dur:(pick rng (0.1 *. duration) (0.2 *. duration))
    ~drop:1.0
    ~applies:(fun (m : Simnet.msg) ~dst:_ ->
      match m.payload with Kv.KWAck _ -> true | _ -> false)
    "wack-loss";
  (* 3. light multicast chaos over the ordered log. *)
  mcast_chaos inj ~at:(pick rng t0 t1) ~dur:(pick rng 0.2 0.4) ~drop:(pick rng 0.02 0.06);
  fun () ->
    let c = Kv.counter sys in
    let f0 = Kv.state_fingerprint_at sys 0 in
    let diverged r =
      violation_if (Kv.state_fingerprint_at sys r <> f0)
        (sprintf "%s: replica %d diverged from replica 0" name r)
    in
    let pending = Kv.pending_writes sys and lin = Kv.check_history sys in
    audited (Safety.verdict aud)
      ~checks:
        (List.concat
           [ violation_if (not lin) (name ^ ": history is not linearizable");
             List.concat_map diverged (List.init (n_replicas - 1) (fun i -> i + 1));
             violation_if (pending > 0)
               (sprintf "%s: %d write responses never drained" name pending);
             violation_if (c "kv_lease_grants" = 0) (name ^ ": no lease grants flowed");
             violation_if
               (c "kv_local_reads" + c "kv_local_nacks" = 0)
               (name ^ ": lease read tier never exercised") ])
      (sprintf " local=%d nack=%d deadline=%d grants=%d lin=%b" (c "kv_local_reads")
         (c "kv_local_nacks") (c "kv_deadline_responses") (c "kv_lease_grants") lin)

(* --- dispatch --------------------------------------------------------------- *)

(* (name, injector salt, body), in report order.  The salts keep each
   scenario's schedule stream apart from the others' at the same seed. *)
let scenarios =
  [ ("mring", 257, mring_chaos);
    ("mring-pressure", 263, mring_pressure);
    ("mring-reconfig", 264, mring_reconfig);
    ("mring-join", 265, mring_join);
    ("uring", 258, uring_chaos);
    ("multiring", 259, multiring_chaos);
    ("multiring-reconfig", 266, multiring_reconfig);
    ("spaxos", 260, spaxos_chaos);
    ("lcr", 261, lcr_chaos);
    ("smr", 262, smr_register);
    ("kv-lease", 267, kv_lease) ]

let protocols = List.map (fun (name, _, _) -> name) scenarios

let run_one ~protocol ~seed ~duration () =
  match List.find_opt (fun (name, _, _) -> name = protocol) scenarios with
  | Some (name, salt, body) -> run ~name ~salt body ~seed ~duration
  | None -> invalid_arg ("Chaos.run_one: unknown protocol " ^ protocol)

let pp_events events =
  let shown = List.filteri (fun i _ -> i < 8) events in
  let frags = List.map (fun (t, l) -> sprintf "%.2f:%s" t l) shown in
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
