(* M-Ring's coordinator: proposing and pacing, Phase 1, the decision,
   flow control, the handoff of a membership change and a joiner's
   catch-up. *)

open Mring_state

(* Slots of [c_rate]. *)
let rate_window = 0
let rate_bits = 1

(* The decision multicast doubles as the commit notification: proposers
   subscribe to the decision group and it carries the committed item uids,
   so no per-proposer acknowledgment is needed (proposers are learners,
   §3.2).  It shares the value's item list; the wire counts 8 bytes a uid. *)
let mcast_decision t c inst vid parts (v : Paxos.Value.t) =
  Simnet.mcast t.net ~src:c.x_proc t.dec_group
    ~size:(hdr + (8 * List.length v.items))
    (Decision { inst; vid; parts; items = v.items })

(* The coordinator votes locally when it proposes; with synchronous
   durability the vote must reach disk before the decision can go out. *)
let coord_local_vote t c inst rnd (v : Paxos.Value.t) parts =
  if not (Acc_log.same_vote c.x_log inst rnd v.vid) then begin
    Acc_log.set_vote c.x_log inst rnd v parts;
    if t.cfg.durability <> Sync_disk then
      ignore (Acc_log.mark_durable c.x_log inst ~rnd ~vid:v.vid);
    (match (t.cfg.durability, c.x_disk) with
    | Sync_disk, Some d ->
        Storage.Disk.write_sync d ~bytes:v.size (fun () ->
            ignore (Acc_log.mark_durable c.x_log inst ~rnd ~vid:v.vid))
    | Async_disk, Some d -> Storage.Disk.write_async d ~bytes:v.size
    | _ -> ());
    acc_update_mem c
  end

let rec mcast_parts t c ~size p2a = function
  | [] -> ()
  | p :: rest ->
      Simnet.mcast t.net ~src:c.x_proc t.part_groups.(p) ~size p2a;
      mcast_parts t c ~size p2a rest

(* [parts] is canonicalised (sorted, duplicate-free) by [propose_batch], so
   each destination group is multicast to exactly once. *)
let mcast_p2a t c inst (v : Paxos.Value.t) parts =
  (match Simnet.tracer t.net with
  | Some tr ->
      Trace.instant tr ~id:inst ~pid:(Simnet.pid c.x_proc) ~cat:"proto" ~name:"p2a"
        ~ts:(Simnet.now t.net)
  | None -> ());
  mcast_parts t c ~size:(v.size + hdr) (P2a { inst; rnd = c.c_rnd; value = v; parts }) parts

let propose_instance t c inst (v : Paxos.Value.t) parts =
  (match Simnet.tracer t.net with
  | Some tr ->
      Trace.abegin tr ~pid:(Simnet.pid c.x_proc) ~cat:"ordering" ~name:"consensus" ~id:inst
        ~ts:(Simnet.now t.net)
  | None -> ());
  note_rc t inst v.items ~decided:false;
  Retry.watch c.c_insts ~now_tk:(Simnet.now_tk t.net) inst (v, parts);
  Float.Array.set c.c_rate rate_bits
    (Float.Array.get c.c_rate rate_bits
    +. (float_of_int (v.size + hdr) *. 8.0 *. float_of_int (List.length parts)));
  c.c_outstanding <- c.c_outstanding + 1;
  coord_local_vote t c inst c.c_rnd v parts;
  mcast_p2a t c inst v parts

let install_ring t new_coord ring =
  t.cur_ring <- ring;
  Array.iter
    (fun a ->
      a.x_ring <- ring;
      a.x_is_coord <- a.x_idx = new_coord.x_idx;
      (* Group membership follows ring membership so promoted spares start
         receiving Phase 2A and decision multicasts. *)
      acc_subscribe t (if List.mem a.x_idx ring then Simnet.join else Simnet.leave) a)
    t.accs

let start_phase1 t c =
  c.c_rnd <- Stdlib.max c.c_rnd c.x_rnd + Array.length t.accs + 1;
  c.x_rnd <- Stdlib.max c.x_rnd c.c_rnd;
  c.c_phase1_ok <- false;
  c.c_p1b <- 0;
  Array.iter
    (fun a ->
      if Simnet.is_alive a.x_proc && a.x_idx <> c.x_idx then
        Simnet.send t.net ~src:c.x_proc ~dst:a.x_proc ~size:hdr
          (P1a { rnd = c.c_rnd; ring = c.x_ring; coord = c.x_idx }))
    t.accs

(* Coordinator-side flow control: Phase 2A traffic is paced below the
   rate the network can multicast without loss (§3.3.6). *)
let pace_ok t c =
  let now = t.clock.(0) in
  if now -. Float.Array.get c.c_rate rate_window > 0.01 then begin
    Float.Array.set c.c_rate rate_window now;
    Float.Array.set c.c_rate rate_bits 0.0
  end;
  Float.Array.get c.c_rate rate_bits < c.c_rate_limit *. 0.01

(* Phase 1 keeps, per instance, the vote of the highest round claimed. *)
let claim c inst vrnd v parts =
  match Hashtbl.find c.c_claimed inst with
  | r, _, _ when r >= vrnd -> ()
  | _ | (exception Not_found) -> Hashtbl.replace c.c_claimed inst (vrnd, v, parts)

let rec drain t c =
  if c.c_phase1_ok && c.x_is_coord && Simnet.is_alive c.x_proc then begin
    if Hashtbl.length c.c_claimed > 0 then begin
      let claimed = Hashtbl.fold (fun i x acc -> (i, x) :: acc) c.c_claimed [] in
      Hashtbl.reset c.c_claimed;
      List.iter
        (fun (inst, (_, v, parts)) ->
          (* A coordinator taking over mid-reconfiguration reconstructs the
             pending membership change from the claimed votes. *)
          let decided = Acc_log.is_decided c.x_log inst in
          note_rc t inst v.Paxos.Value.items ~decided;
          if not (Retry.mem c.c_insts inst || decided) then
            propose_instance t c inst v parts;
          if inst >= c.c_next_inst then c.c_next_inst <- inst + 1)
        (List.sort compare claimed)
    end;
    propose_ready t c;
    if Batcher.ready c.c_batch <> None && c.c_outstanding < c.c_window
       && under_rc_cap t c
       && (not (pace_ok t c)) && not c.c_rate_timer
    then begin
      c.c_rate_timer <- true;
      ignore
        (Simnet.after t.net 0.002 (fun () ->
             dbg t "rate_timer"; c.c_rate_timer <- false; drain t c))
    end;
    (* [arm_timeout] would ignore the call anyway; testing first spares
       building its closure on every drain. *)
    if not (Batcher.is_empty c.c_batch || Batcher.timer_armed c.c_batch) then
      Batcher.arm_timeout c.c_batch t.net ~timeout:batch_timeout (fun () ->
          dbg t "batch_timer";
          if c.x_is_coord && Simnet.is_alive c.x_proc && c.c_phase1_ok
             && c.c_outstanding < c.c_window && under_rc_cap t c
          then begin
            (* Seal the largest partial batch. *)
            match Batcher.largest c.c_batch with
            | Some (parts, _) -> propose_batch t c parts
            | None -> ()
          end;
          drain t c);
    reconfig_drive t c
  end

(* Propose full batches while the window, the reconfiguration cap and the
   pacer all allow. *)
and propose_ready t c =
  if c.c_outstanding < c.c_window && under_rc_cap t c && pace_ok t c then
    match Batcher.ready c.c_batch with
    | Some parts ->
        propose_batch t c parts;
        propose_ready t c
    | None -> ()

and propose_batch t c parts =
  match Batcher.seal c.c_batch parts with
  | [] -> ()
  | items ->
      t.next_vid <- t.next_vid + 1;
      let v = Paxos.Value.make ~vid:t.next_vid items in
      let parts = match canon_parts parts with [] -> [ 0 ] | parts -> parts in
      let inst = c.c_next_inst in
      c.c_next_inst <- inst + 1;
      propose_instance t c inst v parts

(* Handoff drain: once the change is decided, fill every instance below the
   activation point (a hole gets a no-op: every Phase-1 majority claims a
   decided instance, so an unclaimed hole is undecided), then wait for the
   Phase 2 pipeline to empty before turning the epoch over. *)
and reconfig_drive t c =
  match t.rc with
  | Some rc
    when rc.rc_decided && c.x_is_coord && c.c_phase1_ok && Simnet.is_alive c.x_proc ->
      if c.c_rc_fill < rc.rc_activate then begin
        let i = ref (Stdlib.max 0 (Stdlib.max c.c_rc_fill (Acc_log.gc_floor c.x_log))) in
        while !i < rc.rc_activate do
          if not (Retry.mem c.c_insts !i || Acc_log.is_decided c.x_log !i) then begin
            dbg t "reconfig_noop";
            t.next_vid <- t.next_vid + 1;
            propose_instance t c !i (Paxos.Value.skip ~vid:t.next_vid) [ 0 ]
          end;
          incr i
        done;
        c.c_rc_fill <- rc.rc_activate;
        if c.c_next_inst < rc.rc_activate then c.c_next_inst <- rc.rc_activate
      end;
      if c.c_outstanding = 0 && c.c_next_inst >= rc.rc_activate then
        activate_reconfig t c rc
  | _ -> ()

(* The epoch turns over: install the new ring and learners, move the
   failure detector to the epoch, hand the coordinator role to the new
   ring's coordinator, and start catch-up for members new to the ring. *)
and activate_reconfig t c rc =
  Hashtbl.replace t.done_rc_uids rc.rc_uid ();
  t.rc <- None;
  t.epoch <- rc.rc_epoch;
  dbg t "reconfig_activate";
  let old_ring = t.cur_ring in
  (* [reconfigure] checked every index, and the pools only grow.  Retired
     acceptors leave every dissemination group; their history stays
     readable over unicast for repair traffic. *)
  List.iter
    (fun idx ->
      let a = t.accs.(idx) in
      a.x_retired <- true;
      cancel_catchup a;
      acc_subscribe t Simnet.leave a)
    rc.rc_retire;
  (* Removed learners stop at the boundary: leaving the groups means no
     decision at or past the activation instance ever reaches them, so
     they deliver exactly a prefix of the stream. *)
  List.iter
    (fun li ->
      let l = t.lrns.(li) in
      l.l_active <- false;
      lrn_subscribe t Simnet.leave l)
    rc.rc_rm_lrns;
  (* Added learners join exactly at the boundary: their delivery cursor
     starts at the activation instance, so their stream is the new
     epoch's suffix — no catch-up, no gap. *)
  List.iter
    (fun li ->
      let l = t.lrns.(li) in
      l.l_active <- true;
      Od.fast_forward l.l_od rc.rc_activate;
      lrn_subscribe t Simnet.join l)
    rc.rc_add_lrns;
  (* A removed learner's last version report must not gate GC forever. *)
  Array.iter (fun a -> List.iter (Hashtbl.remove a.c_versions) rc.rc_rm_lrns) t.accs;
  let nc = t.accs.(List.nth rc.rc_ring (List.length rc.rc_ring - 1)) in
  if nc.x_idx <> c.x_idx then begin
    (* Handoff: the outgoing coordinator hands its decided marks and GC
       bookkeeping to the incoming one, so Phase 1's claims over the old
       epoch are recognised as decided, not replayed as fresh proposals.
       The pruned votes' uids go too: a spare promoted by the handoff has
       no votes of its own and Phase 1 cannot claim pruned ones, so without
       them a proposer that missed a decision would get its item re-decided
       under a second instance. *)
    Acc_log.absorb nc.x_log ~from:c.x_log;
    if c.x_max_dec > nc.x_max_dec then nc.x_max_dec <- c.x_max_dec;
    nc.c_gc_floor <- Stdlib.max nc.c_gc_floor c.c_gc_floor;
    Hashtbl.iter
      (fun l v ->
        match Hashtbl.find_opt nc.c_versions l with
        | Some v' when v' >= v -> ()
        | _ -> Hashtbl.replace nc.c_versions l v)
      c.c_versions;
    c.c_phase1_ok <- false;
    (* Items still batched here were never proposed; their proposers
       resubmit to the new coordinator on the NewCoord announcement. *)
    Batcher.clear c.c_batch
  end;
  (match t.fd with
  | Some fd ->
      let members =
        Array.to_list t.accs
        |> List.filter (fun a -> not a.x_retired)
        |> List.map (fun a -> a.x_idx)
      in
      Protocol.Failure_detector.set_epoch fd ~epoch:rc.rc_epoch ~members
  | None -> ());
  let floor = Stdlib.max (Acc_log.gc_floor c.x_log) c.c_gc_floor in
  promote_coordinator t nc ~at_least:rc.rc_activate ~ring:rc.rc_ring ();
  (* Ring members without the prior epoch's history replay it in the
     background; activation does not wait for them. *)
  List.iter
    (fun idx ->
      if not (List.mem idx old_ring) then start_catchup t t.accs.(idx) ~floor ~upto:rc.rc_activate)
    rc.rc_ring

(* Promote [a] to coordinator of [ring] and run Phase 1: failover, and
   the planned handoff, which pins the next instance to the activation
   point via [at_least]. *)
and promote_coordinator t a ?(at_least = 0) ~ring () =
  install_ring t a ring;
  a.c_rnd <- Stdlib.max a.c_rnd a.x_rnd;
  a.c_window <- t.cfg.window;
  (* Phase 1's claims re-cover anything a previous tenure left undecided,
     so the trackers restart empty. *)
  Retry.clear a.c_insts;
  a.c_outstanding <- 0;
  a.c_rc_fill <- -1;
  a.c_next_inst <- Stdlib.max (Stdlib.max a.c_next_inst (Acc_log.gc_floor a.x_log)) at_least;
  (* Any value this acceptor voted for may be decided, so its items must
     never be proposed again under a fresh instance; resubmissions after
     NewCoord wait for Phase 1 (see the Propose handler), whose claims
     extend this seeding to every decided value.  Its own votes count in
     Phase 1 too: otherwise a decided instance whose only voter in the
     quorum is the coordinator would be replayed from a stale lower-round
     claim, deciding a different value for the same instance. *)
  Acc_log.iter a.x_log (fun inst s ->
      if s.s_rnd >= 0 then begin
        if inst >= a.c_next_inst then a.c_next_inst <- inst + 1;
        List.iter (fun it -> Uid_set.add a.c_seen_uids it.Paxos.Value.uid) s.s_val.items;
        claim a inst s.s_rnd s.s_val s.s_parts
      end);
  (* ...pruned ones included: an in-ring acceptor voted on every decided
     instance (a decision needs all f+1 ring votes), so this is complete. *)
  Uid_set.union ~into:a.c_seen_uids (Acc_log.done_uids a.x_log);
  let announce dst = Simnet.send t.net ~src:a.x_proc ~dst ~size:hdr (NewCoord { acc = a.x_idx }) in
  Array.iter (fun p -> announce p.p_proc) t.props;
  Array.iter (fun l -> if l.l_active then announce l.l_proc) t.lrns;
  start_phase1 t a

(* A joining ring member replays the decided prefix below the activation
   instance through the learners' gap repair, from the GC floor on (f+1
   learners applied everything below, and it is never repaired again). *)
and start_catchup t a ~floor ~upto =
  cancel_catchup a;
  let od = Od.create () in
  Od.fast_forward od (Stdlib.max 0 floor);
  Od.note_max od (upto - 1);
  let cu = { cu_od = od; cu_repair = Od.repairer (); cu_upto = upto } in
  a.x_catchup <- Some cu;
  dbg t "catchup_start";
  (* Credit history the acceptor already holds (an old spare re-joining). *)
  Acc_log.iter a.x_log (fun i s ->
      if i < upto && s.s_decided && s.s_rnd >= 0 then ignore (Od.offer od ~inst:i ()));
  catchup_pump t a

and catchup_pump t a =
  match a.x_catchup with
  | None -> ()
  | Some cu ->
      Od.pump cu.cu_od (fun _ () -> true);
      if Od.backlog cu.cu_od = 0 then begin
        a.x_catchup <- None;
        dbg t "catchup_done"
      end
      else catchup_cycle t a cu

and catchup_cycle t a cu =
  Od.request_repairs cu.cu_repair cu.cu_od t.net ~timeout:retrans_timeout
    ~cooldown:repair_cooldown
    ~alive:(fun () -> Simnet.is_alive a.x_proc)
    ~complete:(fun _ () -> true)
    ~send:(fun insts ->
      (* Spread over the ring like the learners, falling back to any alive
         acceptor (an out-of-ring one still holds the previous epoch's
         history). *)
      let src =
        match ring_pick t a.x_idx ~skip:a.x_idx with
        | None -> Array.find_opt (fun b -> b.x_idx <> a.x_idx && Simnet.is_alive b.x_proc) t.accs
        | b -> b
      in
      match src with
      | Some src ->
          dbg t "catchup_req";
          Simnet.send t.net ~src:a.x_proc ~dst:src.x_proc ~size:(hdr + List.length insts)
            (RepairReq { insts; learner = -1 - a.x_idx; fwd = 0 })
      | None -> ())

(* Decide [inst] once: record it, multicast the decision (which also acks
   the proposers) and propose more. *)
let coord_fire t c inst vid (v : Paxos.Value.t) parts =
  if not (Acc_log.is_decided c.x_log inst) then begin
    (match Simnet.tracer t.net with
    | Some tr ->
        let now = Simnet.now t.net and pid = Simnet.pid c.x_proc in
        Trace.aend tr ~pid ~cat:"ordering" ~name:"consensus" ~id:inst ~ts:now;
        Trace.instant tr ~id:inst ~pid ~cat:"proto" ~name:"decision" ~ts:now
    | None -> ());
    ignore (Retry.ack c.c_insts inst);
    Acc_log.mark_decided c.x_log inst;
    if inst > c.x_max_dec then c.x_max_dec <- inst;
    c.c_outstanding <- c.c_outstanding - 1;
    c.c_decided <- c.c_decided + 1;
    note_rc t inst v.items ~decided:true;
    mcast_decision t c inst vid parts v;
    drain t c
  end

(* The coordinator is the last acceptor: the arriving Phase 2B closes the
   majority once its own vote is durable (or pruned).  Every check counts
   one "wait_durable"; a durable vote decides at once, and only a vote on
   its way to disk ([Sync_disk]) builds the retry. *)
let rec coord_wait_durable t c inst vid v parts () =
  dbg t "wait_durable";
  if Acc_log.durable c.x_log inst then coord_fire t c inst vid v parts
  else if c.x_is_coord && Simnet.is_alive c.x_proc then
    ignore (Simnet.after t.net 1.0e-4 (coord_wait_durable t c inst vid v parts))

let coord_decide t c inst vid =
  match Retry.find c.c_insts inst with
  | (v, parts) when v.Paxos.Value.vid = vid -> coord_wait_durable t c inst vid v parts ()
  | _ | (exception Not_found) -> ()

(* --- flow control ------------------------------------------------------ *)

let fc_slow_down t c =
  (* Multiplicative decrease on both the instance window and the pacing
     rate; the recovery loop grows them back additively (§3.3.6). *)
  c.c_window <- Stdlib.max 1 (c.c_window / 2);
  c.c_rate_limit <- Stdlib.max 5.0e7 (c.c_rate_limit /. 2.0);
  drain t c

(* Window regrowth: additive increase back toward the configured window and
   pacing rate (§3.3.6). *)
let fc_recovery t =
  ignore
    (Retry.every t.net ~name:"fc_recover" ~period:fc_recover_period (fun () ->
         match coord_opt t with
         | Some c when c.c_window < t.cfg.window || c.c_rate_limit < send_rate ->
             c.c_window <- Stdlib.min t.cfg.window (c.c_window + Stdlib.max 1 (c.c_window / 2));
             c.c_rate_limit <- Stdlib.min send_rate (c.c_rate_limit *. 1.25);
             drain t c
         | _ -> ()))

(* Undecided instances whose Phase 2A multicast may have been lost are
   re-multicast so the ring's Phase 2B chain can restart (§3.3.4). *)
let p2a_retransmission t =
  ignore
    (Retry.every ~counters:t.ctrs t.net ~name:"p2a_retrans" ~period:retrans_timeout
       (fun () ->
         match coord_opt t with
         | Some c ->
             Retry.iter_due c.c_insts ~now_tk:(Simnet.now_tk t.net)
               ~older_than:retrans_age
               (fun inst (v, parts) -> mcast_p2a t c inst v parts)
         | None -> ()))

(* --- admission ------------------------------------------------------------ *)

(* Admit a proposal into the batch, only after Phase 1: before it the
   coordinator cannot know which items are decided, and a resubmitted item
   could be re-proposed under a second instance and delivered twice. *)
let coord_admit a (item : Paxos.Value.item) parts =
  (not (Uid_set.mem a.c_seen_uids item.uid))
  && Batcher.enqueue a.c_batch ~key:(canon_parts parts) item
  && (Uid_set.add a.c_seen_uids item.uid; true)

(* A ReconfigCmd gets its own instance at once, unbatched, so its
   activation point [inst + alpha] is pinned when it is proposed.  While
   [t.rc] is pending, further commands are dropped and ride the proposer's
   resubmission loop until the current one activates. *)
let coord_propose_reconfig t c (item : Paxos.Value.item) =
  let busy = match t.rc with Some rc -> rc.rc_uid <> item.uid | None -> false in
  if
    (not busy)
    && (not (Uid_set.mem c.c_seen_uids item.uid))
    && not (Hashtbl.mem t.done_rc_uids item.uid)
  then begin
    Uid_set.add c.c_seen_uids item.uid;
    dbg t "reconfig_propose";
    t.next_vid <- t.next_vid + 1;
    let v = Paxos.Value.make ~vid:t.next_vid [ item ] in
    let inst = c.c_next_inst in
    c.c_next_inst <- inst + 1;
    propose_instance t c inst v [ 0 ]
  end

let coord_ingest t c (item : Paxos.Value.item) parts =
  match item.app with
  | ReconfigCmd _ -> coord_propose_reconfig t c item
  | _ -> if coord_admit c item parts then drain t c
