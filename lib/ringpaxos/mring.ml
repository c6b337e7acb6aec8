type durability = Memory | Sync_disk | Async_disk

type config = {
  f : int;
  window : int;
  batch_bytes : int;
  batch_timeout : float;
  durability : durability;
  buffer_bytes : int;
  fc_threshold : int;
  fc_recover_period : float;
  hb_period : float;
  hb_timeout : float;
  retrans_timeout : float;
  gc_period : float;
  partitions : int;
  send_rate : float;  (** coordinator pacing, bits/s of Phase 2A traffic *)
  reconfig_alpha : int;
      (** a membership change decided at instance [i] activates at
          [i + reconfig_alpha] (the paper's alpha parameter for
          log-ordered reconfiguration) *)
  proposer_buffer : int;
      (** per-proposer unacknowledged-bytes bound; [submit] returns -1
          (drop) once exceeded.  Small values force open-loop overflow for
          drop-accounting tests. *)
}

let default_config =
  { f = 2;
    window = 64;
    batch_bytes = 8192;
    batch_timeout = 5.0e-4;
    durability = Memory;
    buffer_bytes = 160 * 1024 * 1024;
    fc_threshold = 64;
    fc_recover_period = 0.1;
    hb_period = 0.02;
    hb_timeout = 0.25;
    retrans_timeout = 5.0e-3;
    gc_period = 0.1;
    partitions = 1;
    send_rate = 0.85e9;
    reconfig_alpha = 64;
    proposer_buffer = 16 * 1024 * 1024 }

let hdr = 64

module Batcher = Protocol.Batcher
module Od = Protocol.Ordered_delivery
module Retry = Protocol.Retry
module Uid_set = Protocol.Uid_set

(* An application item annotated with its destination partitions. *)
type Simnet.payload +=
  | Propose of { item : Paxos.Value.item; parts : int list }
  | P1a of { rnd : int; ring : int list; coord : int }
  | P1b of {
      rnd : int;
      acc : int;
      floor : int;
      votes : (int * int * Paxos.Value.t * int list) list;
      done_floor : int;
      done_uids : int list;
          (* the acceptor's [x_done_uids], the item uids of its GC-pruned
             decided votes, as its floor plus the uids above it: a new
             coordinator with no vote history of its own (a promoted spare)
             needs them to suppress proposer resubmissions of items that
             were decided, delivered and pruned before its tenure *)
    }
  | P2a of { inst : int; rnd : int; value : Paxos.Value.t; parts : int list }
  | P2b of { inst : int; rnd : int; vid : int }
  | Decision of { inst : int; vid : int; parts : int list; items : Paxos.Value.item list }
      (* [items] is the decided value's own list, shared, not copied: the
         wire carries its 8-byte uids, and proposers ack them *)
  | SlowDown of { learner : int; pending : int }
  | Version of { learner : int; version : int }
  | Gc of { floor : int }
  | RetransReq of { inst : int; acceptor : int }
      (* an acceptor asking the coordinator for a lost Phase 2A *)
  | RepairReq of { insts : int list; learner : int; fwd : int }
      (* [learner >= 0] addresses replies to a learner; [learner < 0]
         encodes acceptor [-1 - learner] (a joiner catching up).  [fwd]
         counts forwarding hops so an instance nobody holds cannot
         ping-pong between the coordinator and a spare forever. *)
  | Retrans of { inst : int; value : Paxos.Value.t; parts : int list }
  | MaxDec of { upto : int }
  | Hb of { acc : int; epoch : int }
  | NewCoord of { acc : int }
  | ReconfigCmd of {
      ring : int list;  (* new ring, coordinator last *)
      add_lrns : int list;
      rm_lrns : int list;
      retire : int list;  (* acceptors leaving the system entirely *)
    }
      (* A membership change is an ordinary item ordered through the log
         (after "Reconfigurable SMR from Non-Reconfigurable Building
         Blocks"): deciding it at instance [i] schedules activation at
         [i + reconfig_alpha]. *)

(* A joining acceptor replays the decided prefix below the activation
   instance through the learners' gap-repair machinery: a unit-valued
   [Od] tracks which instances below [cu_upto] have been recovered. *)
type catchup = {
  cu_od : unit Protocol.Ordered_delivery.t;
  cu_repair : Protocol.Ordered_delivery.repair;
  cu_upto : int;  (* the epoch's activation instance *)
}

type acc = {
  x_proc : Simnet.proc;
  x_idx : int;  (* global acceptor index *)
  mutable x_rnd : int;
  mutable x_ring : int list;  (* current ring view, coordinator last *)
  mutable x_is_coord : bool;
  mutable x_retired : bool;  (* removed from the system by reconfiguration *)
  mutable x_catchup : catchup option;
  x_votes : (int, int * Paxos.Value.t * int list) Hashtbl.t;
  x_decided : (int, unit) Hashtbl.t;  (* decided instances; [x_votes] holds the values *)
  x_durable : (int, bool) Hashtbl.t;  (* inst -> write completed *)
  x_held : (int, int * int) Hashtbl.t;  (* inst -> (rnd, vid): P2B awaiting P2A/durability *)
  x_disk : Storage.Disk.t option;
  x_done_uids : Uid_set.t;
      (* item uids of votes pruned by GC, all decided (see [acc_gc]); an
         in-ring acceptor prunes every decided instance, so this is a
         floor plus the few uids decided ahead of an older pending one *)
  mutable x_mem : int;  (* sum of the value sizes in [x_votes]; see [set_vote] *)
  mutable x_gc_floor : int;
  mutable x_max_dec : int;  (* highest instance known decided *)
  (* coordinator-only state, live on whichever acceptor currently leads *)
  mutable c_rnd : int;
  mutable c_phase1_ok : bool;
  mutable c_p1b : int;
  c_claimed : (int, int * Paxos.Value.t * int list) Hashtbl.t;
  mutable c_next_inst : int;
  mutable c_outstanding : int;
  c_batch : int list Batcher.t;
      (* pending proposals, batched per destination-partition set *)
  c_insts : (int, Paxos.Value.t * int list) Retry.tracker;
      (* proposed, undecided; stamped for Phase 2A retransmission *)
  mutable c_window : int;  (* flow-controlled window *)
  mutable c_decided : int;
  c_versions : (int, int) Hashtbl.t;  (* learner -> version *)
  mutable c_gc_floor : int;
  c_seen_uids : Uid_set.t;
      (* duplicate-proposal suppression: every uid admitted, claimed or
         known decided; a floor plus the uids admitted out of order *)
  c_preq : (Paxos.Value.item * int list) Queue.t;
      (* proposals received before Phase 1 completed, replayed in arrival
         order once the claimed votes have seeded [c_seen_uids] *)
  c_rate : Float.Array.t;
      (* the pacing window: its start ([rate_window]) and the Phase 2A
         bits sent in it ([rate_bits]); unboxed, so a write allocates
         nothing *)
  mutable c_rate_timer : bool;  (* a deferred drain is scheduled *)
  mutable c_rate_limit : float;  (* adaptive pacing limit (AIMD), bit/s *)
  mutable c_rc_fill : int;
      (* hole-filling cursor of the handoff drain; -1 = not started.
         Reset whenever this acceptor is (re-)promoted, because a new
         coordinator must rescan from the GC floor. *)
}

type lrn = {
  l_proc : Simnet.proc;
  l_idx : int;
  l_parts : int list;
  l_od : Simnet.payload Od.t;
      (* inst -> the [Decision] or [Retrans] that announced it, shared with
         the message rather than copied into a fresh (vid, parts) pair *)
  l_vals : (int, Paxos.Value.t) Hashtbl.t;  (* vid -> value *)
  mutable l_val_bytes : int;  (* sum of the value sizes in [l_vals]; see [set_val] *)
  mutable l_delay : float;  (* processing cost per delivered instance *)
  l_sink : (int, Paxos.Value.t option) Od.sink;  (* in-order, unprocessed *)
  mutable l_fc_sent : bool;
  l_repair : Od.repair;
  mutable l_active : bool;
      (* staged learners wait inactive for their epoch's activation;
         removed learners go inactive and deliver only their prefix *)
  (* Delivery callbacks, built once per learner by [lrn_install] so that
     delivering an instance builds no closure. *)
  mutable l_step : int -> Simnet.payload -> bool;  (* [Od.pump] callback *)
  mutable l_cost : unit -> float;  (* [Od.drain_sink] cost *)
  mutable l_deliver : int -> Paxos.Value.t option -> unit;  (* sink delivery *)
}

type prop = {
  p_proc : Simnet.proc;
  p_idx : int;
  p_pending : (int, Paxos.Value.item * int list) Retry.tracker;
      (* uid -> unacknowledged item, stamped with its last send *)
  mutable p_unacked_bytes : int;
  mutable p_buffer : int;  (* client-side buffer bound, bytes *)
}

(* A pending membership change, from proposal to activation.  The record
   lives on [t] (one at a time): it is derived from the log — the
   [ReconfigCmd] value and its instance — so any coordinator, including
   one taking over mid-handoff, reconstructs and resumes it from the
   claimed votes of Phase 1. *)
type reconfig = {
  rc_uid : int;  (* item uid of the ReconfigCmd, for resubmission dedup *)
  rc_epoch : int;
  rc_inst : int;  (* instance carrying the command *)
  rc_activate : int;  (* rc_inst + reconfig_alpha *)
  rc_ring : int list;
  rc_add_lrns : int list;
  rc_rm_lrns : int list;
  rc_retire : int list;
  rc_decided : bool;
}

type t = {
  net : Simnet.t;
  clock : float array;  (* the engine's clock cell: read without boxing *)
  cfg : config;
  ctrs : Protocol.Counters.t;  (* per-instance event counters *)
  mutable accs : acc array;  (* 2f+1 at creation; add_acceptor grows it *)
  mutable lrns : lrn array;
  props : prop array;
  part_groups : Simnet.group array;  (* Phase 2A dissemination, per partition *)
  dec_group : Simnet.group;  (* decisions, gc *)
  deliver : learner:int -> inst:int -> Paxos.Value.t option -> unit;
  speculative : (learner:int -> inst:int -> Paxos.Value.t -> unit) option;
  mutable fd : Protocol.Failure_detector.t option;
  mutable next_uid : int;
  mutable next_vid : int;
  mutable cur_ring : int list;  (* last installed ring, failover fallback *)
  mutable epoch : int;  (* membership epoch, bumped at each activation *)
  mutable rc : reconfig option;  (* the pending membership change, if any *)
  done_rc_uids : (int, unit) Hashtbl.t;
      (* uids of activated ReconfigCmds: a claimed-vote replay of an old
         reconfiguration instance must not re-activate a past epoch *)
}

let dbg t name = Protocol.Counters.incr t.ctrs name
let counters t = Protocol.Counters.snapshot t.ctrs

let n_acceptors cfg = (2 * cfg.f) + 1

(* Index of the live coordinator in [accs] from [i] on, -1 if none: the
   per-command [submit] scan builds no option. *)
let rec coord_index accs i =
  if i >= Array.length accs then -1
  else
    let a = accs.(i) in
    if a.x_is_coord && (not a.x_retired) && Simnet.is_alive a.x_proc then i
    else coord_index accs (i + 1)

let coord_opt t =
  let i = coord_index t.accs 0 in
  if i < 0 then None else Some t.accs.(i)

let ring_of t = match coord_opt t with Some c -> c.x_ring | None -> t.cur_ring

(* Successor of acceptor [idx] in the current ring, -1 if it has none (the
   coordinator, or a non-member); the ring is stored with the coordinator
   last, and the chain starts at the first element. *)
let rec successor ring idx =
  match ring with a :: (b :: _ as rest) -> if a = idx then b else successor rest idx | _ -> -1

let rec intersects l1 l2 =
  match l1 with [] -> false | x :: rest -> List.mem x l2 || intersects rest l2

(* Partition sets are kept canonical (sorted, duplicate-free), so equal
   sets share one batch key and each destination group is multicast to
   once.  The common sets, empty and singleton, already are: they skip
   the sort, which would copy them. *)
let canon_parts = function ([] | [ _ ]) as parts -> parts | parts -> List.sort_uniq compare parts

(* --- reconfiguration bookkeeping --------------------------------------- *)

(* The not-yet-activated ReconfigCmd among a value's items, if any.  A
   loop, not [List.find_map]: it runs on every proposed and decided value,
   and an ordinary value must cost no closure. *)
let rec rc_of_items t = function
  | [] -> None
  | (it : Paxos.Value.item) :: rest -> (
      match it.app with
      | ReconfigCmd { ring; add_lrns; rm_lrns; retire }
        when not (Hashtbl.mem t.done_rc_uids it.uid) ->
          Some (it.uid, ring, add_lrns, rm_lrns, retire)
      | _ -> rc_of_items t rest)

(* Record (or refresh) the pending membership change whenever a value
   carrying a ReconfigCmd is proposed or decided.  The activation instance
   is pinned to the proposal instance, so the coordinator caps its pipeline
   at [inst + alpha] from the moment of proposal; a takeover that replays
   the claimed vote re-derives the same record, and a takeover after the
   proposal was lost entirely re-derives it at the resubmission's fresh
   instance. *)
let note_rc t inst (v : Paxos.Value.t) ~decided =
  match rc_of_items t v.items with
  | None -> ()
  | Some (uid, ring, add_lrns, rm_lrns, retire) ->
      let was = match t.rc with Some rc when rc.rc_uid = uid -> rc.rc_decided | _ -> false in
      t.rc <-
        Some
          { rc_uid = uid;
            rc_epoch = t.epoch + 1;
            rc_inst = inst;
            rc_activate = inst + t.cfg.reconfig_alpha;
            rc_ring = ring;
            rc_add_lrns = add_lrns;
            rc_rm_lrns = rm_lrns;
            rc_retire = retire;
            rc_decided = decided || was }

(* New proposals must stay below the pending activation instance so the
   pipeline is provably drained when the epoch turns over. *)
let under_rc_cap t c =
  match t.rc with Some rc -> c.c_next_inst < rc.rc_activate | None -> true

let cancel_catchup a =
  match a.x_catchup with
  | Some cu ->
      (* Draining the synthetic backlog ends the repair cycle. *)
      Od.fast_forward cu.cu_od cu.cu_upto;
      a.x_catchup <- None
  | None -> ()

(* --- memory accounting ------------------------------------------------ *)

(* [x_mem] and [l_val_bytes] are running sums of the value sizes held in
   [x_votes] and [l_vals]: every insert and replace goes through
   [set_vote]/[set_val], and every removal subtracts in place, so reporting
   a process's memory is O(1) instead of a walk over the GC window. *)
let set_vote a inst ((_, (v : Paxos.Value.t), _) as vote) =
  (match Hashtbl.find_opt a.x_votes inst with
  | Some (_, old, _) -> a.x_mem <- a.x_mem - old.Paxos.Value.size
  | None -> ());
  Hashtbl.replace a.x_votes inst vote;
  a.x_mem <- a.x_mem + v.size

let set_val l (v : Paxos.Value.t) =
  (match Hashtbl.find_opt l.l_vals v.vid with
  | Some old -> l.l_val_bytes <- l.l_val_bytes - old.Paxos.Value.size
  | None -> ());
  Hashtbl.replace l.l_vals v.vid v;
  l.l_val_bytes <- l.l_val_bytes + v.size

let acc_update_mem a = Simnet.set_mem a.x_proc (a.x_mem + (Hashtbl.length a.x_decided * 16))
let lrn_update_mem l = Simnet.set_mem l.l_proc (l.l_val_bytes + (Od.size l.l_od * 16))

(* --- coordinator ------------------------------------------------------- *)

(* Slots of [c_rate]. *)
let rate_window = 0
let rate_bits = 1

(* The decision multicast doubles as the commit notification: it carries the
   committed item uids and proposers subscribe to the decision group, so no
   per-proposer acknowledgment traffic is needed (proposers are learners,
   §3.2).  The message shares the value's item list; the wire size counts
   8 bytes of uid per item. *)
let mcast_decision t c inst vid parts (v : Paxos.Value.t) =
  Simnet.mcast t.net ~src:c.x_proc t.dec_group
    ~size:(hdr + (8 * List.length v.items))
    (Decision { inst; vid; parts; items = v.items })

(* The coordinator votes locally when it proposes; with synchronous
   durability the vote must reach disk before the final decision can be
   multicast. *)
let coord_local_vote t c inst rnd (v : Paxos.Value.t) parts =
  let duplicate =
    match Hashtbl.find_opt c.x_votes inst with
    | Some (r, v', _) -> r = rnd && v'.Paxos.Value.vid = v.vid
    | None -> false
  in
  if not duplicate then begin
    set_vote c inst (rnd, v, parts);
    Hashtbl.replace c.x_durable inst (t.cfg.durability <> Sync_disk);
    (match (t.cfg.durability, c.x_disk) with
    | Sync_disk, Some d ->
        Storage.Disk.write_sync d ~bytes:v.size (fun () -> Hashtbl.replace c.x_durable inst true)
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
  note_rc t inst v ~decided:false;
  Retry.watch c.c_insts ~now_tk:(Simnet.now_tk t.net) inst (v, parts);
  Float.Array.set c.c_rate rate_bits
    (Float.Array.get c.c_rate rate_bits
    +. (float_of_int (v.size + hdr) *. 8.0 *. float_of_int (List.length parts)));
  c.c_outstanding <- c.c_outstanding + 1;
  coord_local_vote t c inst c.c_rnd v parts;
  mcast_p2a t c inst v parts

let alive_acceptors t =
  Array.to_list t.accs
  |> List.filter (fun a -> (not a.x_retired) && Simnet.is_alive a.x_proc)

let install_ring t new_coord ring =
  t.cur_ring <- ring;
  Array.iter
    (fun a ->
      a.x_ring <- ring;
      a.x_is_coord <- a.x_idx = new_coord.x_idx;
      (* Group membership follows ring membership so promoted spares start
         receiving Phase 2A and decision multicasts. *)
      let op = if List.mem a.x_idx ring then Simnet.join else Simnet.leave in
      Array.iter (fun g -> op g a.x_proc) t.part_groups;
      op t.dec_group a.x_proc)
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

let rec drain t c =
  if c.c_phase1_ok && c.x_is_coord && Simnet.is_alive c.x_proc then begin
    if Hashtbl.length c.c_claimed > 0 then begin
      let claimed = Hashtbl.fold (fun i x acc -> (i, x) :: acc) c.c_claimed [] in
      Hashtbl.reset c.c_claimed;
      List.iter
        (fun (inst, (_, v, parts)) ->
          (* A coordinator taking over mid-reconfiguration reconstructs the
             pending membership change from the claimed votes. *)
          note_rc t inst v ~decided:(Hashtbl.mem c.x_decided inst);
          if not (Retry.mem c.c_insts inst) && not (Hashtbl.mem c.x_decided inst) then
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
      Batcher.arm_timeout c.c_batch t.net ~timeout:t.cfg.batch_timeout (fun () ->
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

(* Handoff drain: once the membership change is decided, fill every
   instance below the activation point — holes get a no-op, which is safe
   because a decided instance is claimed by every Phase-1 majority, so an
   unclaimed hole is provably undecided — then wait for the in-flight
   Phase 2 pipeline to reach zero before turning the epoch over. *)
and reconfig_drive t c =
  match t.rc with
  | Some rc
    when rc.rc_decided && c.x_is_coord && c.c_phase1_ok && Simnet.is_alive c.x_proc ->
      if c.c_rc_fill < rc.rc_activate then begin
        let i = ref (Stdlib.max 0 (Stdlib.max c.c_rc_fill c.x_gc_floor)) in
        while !i < rc.rc_activate do
          if not (Retry.mem c.c_insts !i) && not (Hashtbl.mem c.x_decided !i) then begin
            dbg t "reconfig_noop";
            propose_noop t c !i
          end;
          incr i
        done;
        c.c_rc_fill <- rc.rc_activate;
        if c.c_next_inst < rc.rc_activate then c.c_next_inst <- rc.rc_activate
      end;
      if c.c_outstanding = 0 && c.c_next_inst >= rc.rc_activate then
        activate_reconfig t c rc
  | _ -> ()

and propose_noop t c inst =
  t.next_vid <- t.next_vid + 1;
  propose_instance t c inst (Paxos.Value.skip ~vid:t.next_vid) [ 0 ]

(* The epoch turns over: install the new ring and learner set, thread the
   epoch through the failure detector, hand the coordinator role (and its
   decided-map bookkeeping) to the new ring's coordinator, and start
   catch-up for ring members that lack the prior epoch's history. *)
and activate_reconfig t c rc =
  Hashtbl.replace t.done_rc_uids rc.rc_uid ();
  t.rc <- None;
  t.epoch <- rc.rc_epoch;
  dbg t "reconfig_activate";
  let old_ring = t.cur_ring in
  (* Retired acceptors leave every dissemination group; their history
     stays readable over unicast for repair traffic. *)
  List.iter
    (fun idx ->
      if idx >= 0 && idx < Array.length t.accs then begin
        let a = t.accs.(idx) in
        a.x_retired <- true;
        cancel_catchup a;
        Array.iter (fun g -> Simnet.leave g a.x_proc) t.part_groups;
        Simnet.leave t.dec_group a.x_proc
      end)
    rc.rc_retire;
  (* Removed learners stop at the boundary: leaving the groups means no
     decision at or past the activation instance ever reaches them, so
     they deliver exactly a prefix of the stream. *)
  List.iter
    (fun li ->
      if li >= 0 && li < Array.length t.lrns then begin
        let l = t.lrns.(li) in
        l.l_active <- false;
        List.iter
          (fun p ->
            if p < Array.length t.part_groups then Simnet.leave t.part_groups.(p) l.l_proc)
          l.l_parts;
        Simnet.leave t.dec_group l.l_proc
      end)
    rc.rc_rm_lrns;
  (* Added learners join exactly at the boundary: their delivery cursor
     starts at the activation instance, so their stream is the new
     epoch's suffix — no catch-up, no gap. *)
  List.iter
    (fun li ->
      if li >= 0 && li < Array.length t.lrns then begin
        let l = t.lrns.(li) in
        l.l_active <- true;
        Od.fast_forward l.l_od rc.rc_activate;
        List.iter
          (fun p ->
            if p < Array.length t.part_groups then Simnet.join t.part_groups.(p) l.l_proc)
          l.l_parts;
        Simnet.join t.dec_group l.l_proc
      end)
    rc.rc_add_lrns;
  (* A removed learner's last version report must not gate GC forever. *)
  Array.iter (fun a -> List.iter (Hashtbl.remove a.c_versions) rc.rc_rm_lrns) t.accs;
  let nc = t.accs.(List.nth rc.rc_ring (List.length rc.rc_ring - 1)) in
  if nc.x_idx <> c.x_idx then begin
    (* Handoff state transfer: the outgoing coordinator hands its decided
       map and GC bookkeeping to the incoming one, so Phase 1's claimed
       votes over the old epoch are recognised as decided instead of
       being replayed as fresh proposals. *)
    Hashtbl.iter
      (fun i () -> if not (Hashtbl.mem nc.x_decided i) then Hashtbl.replace nc.x_decided i ())
      c.x_decided;
    (* The uids of GC-pruned decided votes travel with the role: a spare
       promoted by the handoff has no vote history of its own, and Phase 1
       claims can no longer produce votes the ring already pruned — without
       these uids a proposer that missed a decision would get its item
       re-decided under a second instance. *)
    Uid_set.union ~into:nc.x_done_uids c.x_done_uids;
    if c.x_max_dec > nc.x_max_dec then nc.x_max_dec <- c.x_max_dec;
    nc.c_gc_floor <- Stdlib.max nc.c_gc_floor c.c_gc_floor;
    nc.x_gc_floor <- Stdlib.max nc.x_gc_floor c.x_gc_floor;
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
  let floor = Stdlib.max c.x_gc_floor c.c_gc_floor in
  promote_coordinator t nc ~at_least:rc.rc_activate ~ring:rc.rc_ring ();
  (* Ring members without the prior epoch's history replay it in the
     background; activation does not wait for them. *)
  List.iter
    (fun idx ->
      if not (List.mem idx old_ring) then start_catchup t t.accs.(idx) ~floor ~upto:rc.rc_activate)
    rc.rc_ring

(* Promote [a] to coordinator of [ring] and run Phase 1.  Shared between
   failover ([become_coordinator]) and planned handoff
   ([activate_reconfig], which pins the next instance to the activation
   point via [at_least]). *)
and promote_coordinator t a ?(at_least = 0) ~ring () =
  install_ring t a ring;
  a.c_rnd <- Stdlib.max a.c_rnd a.x_rnd;
  a.c_window <- t.cfg.window;
  (* A previous coordinator tenure may have left tracked instances and an
     outstanding count behind; Phase 1's claimed votes re-cover anything
     still undecided, so the trackers restart empty. *)
  Retry.clear a.c_insts;
  a.c_outstanding <- 0;
  a.c_rc_fill <- -1;
  a.c_next_inst <-
    Hashtbl.fold (fun i _ acc -> Stdlib.max (i + 1) acc) a.x_votes
      (Stdlib.max (Stdlib.max a.c_next_inst a.x_gc_floor) at_least);
  (* Every value this acceptor voted for may already be decided, so its
     items must never be proposed again under a fresh instance.  The
     resubmissions triggered by the NewCoord announcement are buffered
     until Phase 1 completes (see the Propose handler), by which point the
     claimed votes have extended this seeding to every decided value. *)
  Hashtbl.iter
    (fun _ ((_, v, _) : int * Paxos.Value.t * int list) ->
      List.iter (fun it -> Uid_set.add a.c_seen_uids it.Paxos.Value.uid) v.items)
    a.x_votes;
  (* ...including votes GC already pruned.  An in-ring acceptor voted on
     every decided instance (decisions need all f+1 ring votes), so its
     own vote history is a complete record of the decided uids. *)
  Uid_set.union ~into:a.c_seen_uids a.x_done_uids;
  (* The coordinator's own votes count toward Phase 1 too.  Without them,
     a decided instance whose only voter in the Phase 1 quorum is the
     coordinator itself would be replayed from a stale lower-round claim
     — deciding a different value for the same instance. *)
  Hashtbl.iter
    (fun inst ((vrnd, vval, parts) : int * Paxos.Value.t * int list) ->
      match Hashtbl.find_opt a.c_claimed inst with
      | Some (r, _, _) when r >= vrnd -> ()
      | _ -> Hashtbl.replace a.c_claimed inst (vrnd, vval, parts))
    a.x_votes;
  let announce dst = Simnet.send t.net ~src:a.x_proc ~dst ~size:hdr (NewCoord { acc = a.x_idx }) in
  Array.iter (fun p -> announce p.p_proc) t.props;
  Array.iter (fun l -> if l.l_active then announce l.l_proc) t.lrns;
  start_phase1 t a

(* A joining ring member replays the decided prefix below the activation
   instance (above the GC floor — everything below was already applied by
   f+1 learners and will never be repaired again) through the same
   targeted gap-repair machinery the learners use. *)
and start_catchup t a ~floor ~upto =
  cancel_catchup a;
  let od = Od.create () in
  Od.fast_forward od (Stdlib.max 0 floor);
  Od.note_max od (upto - 1);
  let cu = { cu_od = od; cu_repair = Od.repairer (); cu_upto = upto } in
  a.x_catchup <- Some cu;
  dbg t "catchup_start";
  (* Credit history the acceptor already holds (an old spare re-joining). *)
  Hashtbl.iter
    (fun i _ -> if i < upto && Hashtbl.mem a.x_votes i then ignore (Od.offer od ~inst:i ()))
    a.x_decided;
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
  Od.request_repairs cu.cu_repair cu.cu_od t.net ~timeout:t.cfg.retrans_timeout
    ~cooldown:(4.0 *. t.cfg.retrans_timeout)
    ~alive:(fun () -> Simnet.is_alive a.x_proc)
    ~complete:(fun _ () -> true)
    ~send:(fun insts ->
      match catchup_source t a with
      | Some src ->
          dbg t "catchup_req";
          Simnet.send t.net ~src:a.x_proc ~dst:src.x_proc ~size:(hdr + List.length insts)
            (RepairReq { insts; learner = -1 - a.x_idx; fwd = 0 })
      | None -> ())

(* Repair source for a catching-up acceptor: spread over the ring like the
   learners' preferential acceptors, falling back to any alive acceptor
   (an out-of-ring one still holds the previous epoch's history). *)
and catchup_source t a =
  let ring = ring_of t in
  let n = List.length ring in
  let rec pick k =
    if k >= n then None
    else
      let idx = List.nth ring ((a.x_idx + k) mod n) in
      let b = t.accs.(idx) in
      if idx <> a.x_idx && Simnet.is_alive b.x_proc then Some b else pick (k + 1)
  in
  match pick 0 with
  | Some b -> Some b
  | None ->
      Array.fold_left
        (fun acc b ->
          if acc = None && b.x_idx <> a.x_idx && Simnet.is_alive b.x_proc then Some b else acc)
        None t.accs

(* Decide [inst] once: record it, multicast the decision (which also acks
   the proposers) and propose more. *)
let coord_fire t c inst vid (v : Paxos.Value.t) parts =
  if not (Hashtbl.mem c.x_decided inst) then begin
    (match Simnet.tracer t.net with
    | Some tr ->
        let now = Simnet.now t.net and pid = Simnet.pid c.x_proc in
        Trace.aend tr ~pid ~cat:"ordering" ~name:"consensus" ~id:inst ~ts:now;
        Trace.instant tr ~id:inst ~pid ~cat:"proto" ~name:"decision" ~ts:now
    | None -> ());
    ignore (Retry.ack c.c_insts inst);
    Hashtbl.add c.x_decided inst ();
    if inst > c.x_max_dec then c.x_max_dec <- inst;
    c.c_outstanding <- c.c_outstanding - 1;
    c.c_decided <- c.c_decided + 1;
    note_rc t inst v ~decided:true;
    mcast_decision t c inst vid parts v;
    drain t c
  end

(* A pruned durability entry means the instance was garbage collected
   after being applied by f+1 learners — treat it as durable. *)
let coord_durable c inst =
  match Hashtbl.find c.x_durable inst with b -> b | exception Not_found -> true

(* The coordinator is the last acceptor: the arriving Phase 2B closes the
   majority provided its own vote is durable.  Every check counts one
   "wait_durable"; a durable vote decides at once, and only a vote still on
   its way to disk ([Sync_disk]) builds the retry. *)
let coord_decide t c inst vid =
  match Retry.find c.c_insts inst with
  | (v, parts) when v.Paxos.Value.vid = vid ->
      dbg t "wait_durable";
      if coord_durable c inst then coord_fire t c inst vid v parts
      else if c.x_is_coord && Simnet.is_alive c.x_proc then begin
        let rec wait_durable () =
          dbg t "wait_durable";
          if coord_durable c inst then coord_fire t c inst vid v parts
          else if c.x_is_coord && Simnet.is_alive c.x_proc then
            ignore (Simnet.after t.net 1.0e-4 wait_durable)
        in
        ignore (Simnet.after t.net 1.0e-4 wait_durable)
      end
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
    (Retry.every t.net ~name:"fc_recover" ~period:t.cfg.fc_recover_period (fun () ->
         match coord_opt t with
         | Some c when c.c_window < t.cfg.window || c.c_rate_limit < t.cfg.send_rate ->
             c.c_window <- Stdlib.min t.cfg.window (c.c_window + Stdlib.max 1 (c.c_window / 2));
             c.c_rate_limit <- Stdlib.min t.cfg.send_rate (c.c_rate_limit *. 1.25);
             drain t c
         | _ -> ()))

(* --- acceptor ---------------------------------------------------------- *)

let forward_p2b t a inst rnd vid =
  let next = successor a.x_ring a.x_idx in
  if next >= 0 then
    Simnet.send t.net ~src:a.x_proc ~dst:t.accs.(next).x_proc ~size:hdr (P2b { inst; rnd; vid })
  else if a.x_is_coord then coord_decide t a inst vid

(* [a]'s vote for [inst] has reached stable storage. *)
let acc_durable a inst = match Hashtbl.find a.x_durable inst with b -> b | exception Not_found -> false

(* [a] holds a durable vote for value [vid] at [inst]: its Phase 2B may go. *)
let acc_ready a inst vid =
  (match Hashtbl.find a.x_votes inst with
  | _, v, _ -> v.Paxos.Value.vid = vid
  | exception Not_found -> false)
  && acc_durable a inst

let acc_try_forward t a inst =
  match Hashtbl.find a.x_held inst with
  | rnd, vid ->
      if acc_ready a inst vid then begin
        Hashtbl.remove a.x_held inst;
        forward_p2b t a inst rnd vid
      end
  | exception Not_found -> ()

(* The vote is on stable storage (at once with [Memory] durability, which
   calls this directly rather than through a closure). *)
let acc_after_durable t a inst rnd vid =
  Hashtbl.replace a.x_durable inst true;
  (* First in-ring acceptor spontaneously starts the Phase 2B chain. *)
  if (not a.x_is_coord) && a.x_ring <> [] && List.hd a.x_ring = a.x_idx then
    forward_p2b t a inst rnd vid
  else acc_try_forward t a inst

let acc_on_p2a t a inst rnd (v : Paxos.Value.t) parts =
  (* A retransmitted Phase 2A for a value already voted (and possibly still
     being persisted) must not trigger another vote or disk write. *)
  let duplicate =
    match Hashtbl.find_opt a.x_votes inst with
    | Some (r, v', _) -> r = rnd && v'.Paxos.Value.vid = v.vid
    | None -> false
  in
  if duplicate then begin
    (* A retransmitted P2A means the coordinator still lacks this instance.
       Mid-chain acceptors re-forward from their held P2B, but the chain
       head holds nothing — its spontaneous P2B may have been the lost
       message (e.g. a partition hit right after the vote), so it must
       re-send or the chain can never restart: the round is unchanged, so
       every further retransmission stays a duplicate. *)
    if
      (not a.x_is_coord) && a.x_ring <> []
      && List.hd a.x_ring = a.x_idx
      && acc_durable a inst
    then forward_p2b t a inst rnd v.vid
    else acc_try_forward t a inst
  end
  else if rnd >= a.x_rnd then begin
    a.x_rnd <- rnd;
    set_vote a inst (rnd, v, parts);
    acc_update_mem a;
    match (t.cfg.durability, a.x_disk) with
    | Sync_disk, Some d ->
        Storage.Disk.write_sync d ~bytes:v.size (fun () -> acc_after_durable t a inst rnd v.vid)
    | Async_disk, Some d ->
        (* Asynchronous writes: the vote proceeds immediately unless the
           device has fallen too far behind — a bounded dirty buffer, which
           is what makes Recoverable Ring Paxos disk-bound (Fig. 5.1). *)
        Storage.Disk.write_async d ~bytes:v.size;
        let lag = Storage.Disk.backlog d ~now:(Simnet.now t.net) -. 0.05 in
        if lag > 0.0 then
          ignore (Simnet.after t.net lag (fun () -> acc_after_durable t a inst rnd v.vid))
        else acc_after_durable t a inst rnd v.vid
    | _ -> acc_after_durable t a inst rnd v.vid
  end

let acc_on_p2b t a inst rnd vid =
  if a.x_is_coord then coord_decide t a inst vid
  else if acc_ready a inst vid then forward_p2b t a inst rnd vid
  else begin
    (* Phase 2A not yet ip-delivered (or not yet durable): hold the vote
       and ask the coordinator to retransmit if the gap persists. *)
    Hashtbl.replace a.x_held inst (rnd, vid);
    ignore
      (Simnet.after t.net t.cfg.retrans_timeout (fun () ->
           if Hashtbl.mem a.x_held inst && Simnet.is_alive a.x_proc then begin
             match coord_opt t with
             | Some c ->
                 Simnet.send t.net ~src:a.x_proc ~dst:c.x_proc ~size:hdr
                   (RetransReq { inst; acceptor = a.x_idx })
             | None -> ()
           end))
  end

(* --- learner ------------------------------------------------------------ *)

let pref_acceptor t l =
  (* Preferential acceptor: spread learners across the ring. *)
  let ring = ring_of t in
  let n = List.length ring in
  let rec pick k =
    if k >= n then None
    else
      let idx = List.nth ring ((l.l_idx + k) mod n) in
      if Simnet.is_alive t.accs.(idx).x_proc then Some t.accs.(idx) else pick (k + 1)
  in
  match pick 0 with Some a -> Some a | None -> coord_opt t

(* [incoming] counts the instance being released into the sink, if any. *)
let lrn_fc_check t l ~incoming =
  (* The learner's buffer pressure is both unprocessed decisions and the
     backlog of decided-but-not-yet-deliverable instances (losses it is
     still repairing) — §3.3.6. *)
  let pending = Od.sink_length l.l_sink + incoming + Od.backlog l.l_od in
  if pending > t.cfg.fc_threshold && not l.l_fc_sent then begin
    match pref_acceptor t l with
    | Some a ->
        l.l_fc_sent <- true;
        Simnet.send t.net ~src:l.l_proc ~dst:a.x_proc ~size:hdr
          (SlowDown { learner = l.l_idx; pending });
        ignore (Simnet.after t.net 0.05 (fun () -> l.l_fc_sent <- false))
    | None -> ()
  end

(* The value id an [l_od] entry announces as decided. *)
let announced_vid = function
  | Decision { vid; _ } | Retrans { value = { vid; _ }; _ } -> vid
  | _ -> invalid_arg "Mring.announced_vid: not a decision"

(* Ask the preferential acceptor for the concrete missing instances —
   decided at or beyond the delivery cursor but lacking either the decision
   or the value (§3.3.4). *)
let repair_cycle t l =
  Od.request_repairs l.l_repair l.l_od t.net ~timeout:t.cfg.retrans_timeout
    ~cooldown:(4.0 *. t.cfg.retrans_timeout)
    ~alive:(fun () -> Simnet.is_alive l.l_proc)
    ~complete:(fun _ d -> Hashtbl.mem l.l_vals (announced_vid d))
    ~send:(fun insts ->
      (match Simnet.tracer t.net with
      | Some tr ->
          Trace.instant tr ~pid:(Simnet.pid l.l_proc) ~cat:"proto" ~name:"repair-req"
            ~ts:(Simnet.now t.net)
      | None -> ());
      match pref_acceptor t l with
      | Some a ->
          Simnet.send t.net ~src:l.l_proc ~dst:a.x_proc ~size:(hdr + List.length insts)
            (RepairReq { insts; learner = l.l_idx; fwd = 0 })
      | None -> ())

let lrn_release t l inst v =
  (match Simnet.tracer t.net with
  | Some tr ->
      Trace.aend tr ~pid:(Simnet.pid l.l_proc) ~cat:"ordering" ~name:"deliver-wait"
        ~id:((inst * 256) + l.l_idx) ~ts:(Simnet.now t.net)
  | None -> ());
  lrn_fc_check t l ~incoming:1;
  Od.sink_offer l.l_sink t.net l.l_proc ~cost:l.l_cost l.l_deliver inst v;
  true

(* One [Od.pump] step: release a decided instance once its value is here
   (or at once when it carries nothing for this learner's partitions).
   [false] blocks the pump on an instance whose decision is known but
   whose value was lost, to be fetched from the preferential acceptor. *)
let lrn_step t l inst = function
  | Decision { vid; parts; _ } | Retrans { value = { vid; _ }; parts; _ } -> (
      if not (intersects parts l.l_parts) then lrn_release t l inst None
      else
        match Hashtbl.find l.l_vals vid with
        | v ->
            Hashtbl.remove l.l_vals vid;
            l.l_val_bytes <- l.l_val_bytes - v.Paxos.Value.size;
            lrn_update_mem l;
            lrn_release t l inst (Some v)
        | exception Not_found -> false)
  | _ -> invalid_arg "Mring.lrn_step: not a decision"

(* Release everything deliverable in instance order; what remains blocked is
   either an instance whose decision was lost (repairable once a later
   decision reveals the gap) or one whose value has not arrived. *)
let lrn_drain t l =
  Od.pump l.l_od l.l_step;
  if Od.backlog l.l_od > 0 then repair_cycle t l

(* Speculative delivery exposes values in ip-multicast arrival order, before
   their order is decided (Chapter 4); the replica layer detects and rolls
   back the rare arrival/decision mismatches. *)
let lrn_on_p2a t l inst (v : Paxos.Value.t) =
  set_val l v;
  (match t.speculative with
  | Some spec ->
      Od.speculate l.l_od ~inst (fun () ->
          (match Simnet.tracer t.net with
          | Some tr ->
              Trace.instant tr ~id:inst ~pid:(Simnet.pid l.l_proc) ~cat:"proto"
                ~name:"speculate" ~ts:(Simnet.now t.net)
          | None -> ());
          spec ~learner:l.l_idx ~inst v)
  | None -> ());
  lrn_update_mem l;
  lrn_drain t l

let lrn_on_decision t l inst (d : Simnet.payload) =
  Od.note_max l.l_od inst;
  if Od.offer l.l_od ~inst d then begin
    (match Simnet.tracer t.net with
    | Some tr ->
        Trace.abegin tr ~pid:(Simnet.pid l.l_proc) ~cat:"ordering" ~name:"deliver-wait"
          ~id:((inst * 256) + l.l_idx) ~ts:(Simnet.now t.net)
    | None -> ());
    lrn_drain t l
  end
  else if Od.backlog l.l_od > 0 then
    (* A duplicate decision can still widen the gap through [note_max]
       (e.g. a decision addressed to another partition re-delivered after
       the repair cycle went quiescent): restart repairs here, because the
       drain path above did not run. *)
    repair_cycle t l;
  lrn_fc_check t l ~incoming:0

(* Learners periodically report their delivery version so acceptors can both
   garbage collect and tell a learner when it has fallen behind. *)
let version_reports t l =
  ignore
    (Retry.every t.net ~name:"version" ~period:t.cfg.gc_period (fun () ->
         if Simnet.is_alive l.l_proc && l.l_active then begin
           match pref_acceptor t l with
           | Some a ->
               Simnet.send t.net ~src:l.l_proc ~dst:a.x_proc ~size:hdr
                 (Version { learner = l.l_idx; version = Od.next l.l_od })
           | None -> ()
         end))

(* --- garbage collection ------------------------------------------------- *)

let acc_gc t a floor =
  (match Simnet.tracer t.net with
  | Some tr ->
      Trace.instant tr ~pid:(Simnet.pid a.x_proc) ~cat:"proto" ~name:"gc" ~ts:(Simnet.now t.net)
  | None -> ());
  a.x_gc_floor <- Stdlib.max a.x_gc_floor floor;
  (* The GC floor only advances past applied instances, so every pruned
     vote is for a decided value.  Remember its item uids: if this
     acceptor later takes over as coordinator, they seed [c_seen_uids] so
     a proposer that missed the decision (lossy multicast) cannot get the
     same item decided under a second instance. *)
  let done_item (it : Paxos.Value.item) = Uid_set.add a.x_done_uids it.uid in
  Hashtbl.filter_map_inplace
    (fun i ((_, (v : Paxos.Value.t), _) as vote) ->
      if i < floor then begin
        List.iter done_item v.items;
        a.x_mem <- a.x_mem - v.size;
        None
      end
      else Some vote)
    a.x_votes;
  let prune i x = if i < floor then None else Some x in
  Hashtbl.filter_map_inplace prune a.x_decided;
  Hashtbl.filter_map_inplace prune a.x_durable;
  acc_update_mem a

let coord_on_version t c learner version =
  Hashtbl.replace c.c_versions learner version;
  let active = Array.fold_left (fun n l -> if l.l_active then n + 1 else n) 0 t.lrns in
  if active > 0 && Hashtbl.length c.c_versions >= active then begin
    let floor = Hashtbl.fold (fun _ v acc -> Stdlib.min v acc) c.c_versions max_int in
    if floor > c.c_gc_floor then begin
      c.c_gc_floor <- floor;
      Simnet.mcast t.net ~src:c.x_proc t.dec_group ~size:hdr (Gc { floor });
      acc_gc t c floor
    end
  end

(* Resubmit items that have gone unacknowledged for a full timeout (lost to
   coordinator buffer overflow or to a coordinator crash). *)
let prop_resubmission t p =
  ignore
    (Retry.every t.net ~name:"resubmit" ~period:0.5 (fun () ->
         if Simnet.is_alive p.p_proc then
           match coord_opt t with
           | Some c ->
               Retry.iter_due p.p_pending ~now_tk:(Simnet.now_tk t.net) ~older_than:0.5
                 (fun _uid (it, parts) ->
                   Simnet.send t.net ~src:p.p_proc ~dst:c.x_proc
                     ~size:(it.Paxos.Value.isize + hdr) (Propose { item = it; parts }))
           | None -> ()))

(* --- failure handling ---------------------------------------------------- *)

let become_coordinator t a =
  (* Lay out a fresh ring of alive acceptors — preserving the current ring
     size and preferring its surviving members — with [a] as coordinator
     (last), then run Phase 1 with a higher round. *)
  let target = Stdlib.max 1 (List.length t.cur_ring) in
  let others = alive_acceptors t |> List.filter (fun b -> b.x_idx <> a.x_idx) in
  let in_ring, spares = List.partition (fun b -> List.mem b.x_idx t.cur_ring) others in
  let chosen = List.filteri (fun i _ -> i < target - 1) (in_ring @ spares) in
  let ring = List.map (fun b -> b.x_idx) chosen @ [ a.x_idx ] in
  promote_coordinator t a ~ring ()

(* Undecided instances whose Phase 2A multicast may have been lost are
   re-multicast so the ring's Phase 2B chain can restart (§3.3.4). *)
let p2a_retransmission t =
  ignore
    (Retry.every ~counters:t.ctrs t.net ~name:"p2a_retrans" ~period:t.cfg.retrans_timeout
       (fun () ->
         match coord_opt t with
         | Some c ->
             Retry.iter_due c.c_insts ~now_tk:(Simnet.now_tk t.net)
               ~older_than:(2.0 *. t.cfg.retrans_timeout)
               (fun inst (v, parts) -> mcast_p2a t c inst v parts)
         | None -> ()))

(* The shared failure detector drives both directions of §3.3.4's failure
   handling: while a coordinator leads it heartbeats the other acceptors and
   swaps dead ring members for spares; once none leads, the first alive
   acceptor whose heartbeats went stale takes over. *)
let failure_detection t =
  let emit () =
    match coord_opt t with
    | None -> ()
    | Some c ->
        (* Coordinator heartbeats every alive non-retired acceptor (spares
           included, so a spare's promotion timeout measures real
           silence)... *)
        Array.iter
          (fun a ->
            if a.x_idx <> c.x_idx && (not a.x_retired) && Simnet.is_alive a.x_proc then
              Simnet.send t.net ~src:c.x_proc ~dst:a.x_proc ~size:hdr
                (Hb { acc = c.x_idx; epoch = t.epoch }))
          t.accs;
        (* ...and reconfigures, swapping dead ring members for spares. *)
        List.iter
          (fun idx ->
            if idx <> c.x_idx && not (Simnet.is_alive t.accs.(idx).x_proc) then
              let spares =
                alive_acceptors t |> List.filter (fun b -> not (List.mem b.x_idx c.x_ring))
              in
              match spares with
              | spare :: _ ->
                  install_ring t c
                    (List.map (fun i -> if i = idx then spare.x_idx else i) c.x_ring);
                  start_phase1 t c
              | [] -> ())
          c.x_ring
  in
  let on_suspect ~stale =
    (* Coordinator dead: the first alive in-ring acceptor (then any spare)
       takes over once the heartbeat timeout expires. *)
    let in_ring =
      List.filter_map
        (fun idx ->
          let a = t.accs.(idx) in
          if Simnet.is_alive a.x_proc && stale idx then Some a else None)
        t.cur_ring
    in
    let candidates =
      if in_ring <> [] then in_ring
      else List.filter (fun a -> stale a.x_idx) (alive_acceptors t)
    in
    match candidates with
    | a :: _ -> become_coordinator t a
    | [] -> ()
  in
  t.fd <-
    Some
      (Protocol.Failure_detector.create t.net ~hb_period:t.cfg.hb_period
         ~hb_timeout:t.cfg.hb_timeout
         ~leader:(fun () -> coord_opt t <> None)
         ~emit ~on_suspect)

(* --- handlers ------------------------------------------------------------ *)

(* Admit a proposal into the coordinator's batch.  Must only run once
   Phase 1 has completed: before that the coordinator cannot know which
   items are already decided, and a resubmitted item could be re-proposed
   under a second instance and delivered twice. *)
let coord_admit a (item : Paxos.Value.item) parts =
  if not (Uid_set.mem a.c_seen_uids item.uid) then
    if Batcher.enqueue a.c_batch ~key:(canon_parts parts) item then begin
      Uid_set.add a.c_seen_uids item.uid;
      true
    end
    else false
  else false

(* A ReconfigCmd is never batched with application items: it gets its own
   instance immediately, so the activation point [inst + alpha] is pinned
   the moment it is proposed.  One membership change is in flight at a
   time — while [t.rc] is pending, further commands are dropped and ride
   the proposer's resubmission loop until the current one activates. *)
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

let acc_handler t a (m : Simnet.msg) =
  match m.payload with
  | Propose { item; parts } ->
      if a.x_is_coord then
        if not a.c_phase1_ok then
          (* Buffer, in arrival order, until the claimed votes of Phase 1
             have seeded [c_seen_uids] with every decided item. *)
          Queue.push (item, parts) a.c_preq
        else coord_ingest t a item parts
  | P1a { rnd; ring; coord = cidx } ->
      if rnd > a.x_rnd then begin
        a.x_rnd <- rnd;
        a.x_ring <- ring;
        a.x_is_coord <- a.x_idx = cidx;
        let votes =
          Hashtbl.fold (fun i (vr, vv, ps) l -> (i, vr, vv, ps) :: l) a.x_votes []
        in
        (* The floor costs one 8-byte word once it has moved: an empty set
           still costs nothing. *)
        let done_floor = Uid_set.floor a.x_done_uids in
        let done_uids = Uid_set.sparse_list a.x_done_uids in
        let done_words = List.length done_uids + if done_floor > 1 then 1 else 0 in
        Simnet.send t.net ~src:a.x_proc ~dst:t.accs.(cidx).x_proc
          ~size:(hdr + (List.length votes * 24) + (done_words * 8))
          (P1b { rnd; acc = a.x_idx; floor = a.x_gc_floor; votes; done_floor; done_uids })
      end
  | P1b { rnd; acc = _; floor; votes; done_floor; done_uids } ->
      if a.x_is_coord && rnd = a.c_rnd && not a.c_phase1_ok then begin
        if floor > a.c_next_inst then a.c_next_inst <- floor;
        (* Decided-and-pruned items exist only as uids now; without them a
           promoted spare would happily re-order a resubmission of an item
           every learner already applied.  Any Phase-1 majority contains a
           ring member of every earlier epoch (quorum intersection), so
           merging each reply's pruned uids covers all such items.  They
           also go into [x_done_uids] so a later planned handoff (which
           transfers that table to the next coordinator) carries them on. *)
        Uid_set.raise_floor a.c_seen_uids done_floor;
        Uid_set.raise_floor a.x_done_uids done_floor;
        List.iter
          (fun uid ->
            Uid_set.add a.c_seen_uids uid;
            Uid_set.add a.x_done_uids uid)
          done_uids;
        List.iter
          (fun (inst, vrnd, vval, parts) ->
            match Hashtbl.find_opt a.c_claimed inst with
            | Some (r, _, _) when r >= vrnd -> ()
            | _ -> Hashtbl.replace a.c_claimed inst (vrnd, vval, parts))
          votes;
        a.c_p1b <- a.c_p1b + 1;
        (* Counting its own state, the coordinator needs [n/2] more replies
           for a majority of the n-acceptor pool.  Retired acceptors stay in
           the pool and keep answering Phase 1 — quorums taken before and
           after a reconfiguration therefore always intersect. *)
        if a.c_p1b >= Array.length t.accs / 2 then begin
          a.c_phase1_ok <- true;
          (* The claimed votes of a majority cover every decided value
             (quorum intersection), so marking their uids seen stops a
             proposer resubmission from re-deciding an item under a second
             instance.  Undecided claimed values are replayed by [drain]
             below, so suppressing their resubmission loses nothing. *)
          Hashtbl.iter
            (fun _ ((_, v, _) : int * Paxos.Value.t * int list) ->
              List.iter
                (fun it -> Uid_set.add a.c_seen_uids it.Paxos.Value.uid)
                v.items)
            a.c_claimed;
          (* Replay proposals buffered during Phase 1, in arrival order. *)
          while not (Queue.is_empty a.c_preq) do
            let item, parts = Queue.pop a.c_preq in
            match item.Paxos.Value.app with
            | ReconfigCmd _ -> coord_propose_reconfig t a item
            | _ -> ignore (coord_admit a item parts)
          done;
          drain t a
        end
      end
  | P2a { inst; rnd; value; parts } -> if not a.x_is_coord then acc_on_p2a t a inst rnd value parts
  | P2b { inst; rnd; vid } -> acc_on_p2b t a inst rnd vid
  | Decision { inst; _ } ->
      if inst > a.x_max_dec then a.x_max_dec <- inst;
      if not a.x_is_coord then Hashtbl.replace a.x_decided inst ()
  | SlowDown _ as sd ->
      (* Forward along the ring until the coordinator reacts. *)
      if a.x_is_coord then fc_slow_down t a
      else begin
        let next = successor a.x_ring a.x_idx in
        if next >= 0 then Simnet.send t.net ~src:a.x_proc ~dst:t.accs.(next).x_proc ~size:hdr sd
      end
  | Version { learner; version } ->
      (* Tell the learner how far decisions actually reach, so a learner
         that lost the tail of the decision stream discovers the gap and
         repairs it through its normal targeted requests. *)
      if
        version <= a.x_max_dec && learner >= 0
        && learner < Array.length t.lrns
        && t.lrns.(learner).l_active
      then
        Simnet.send t.net ~src:a.x_proc ~dst:t.lrns.(learner).l_proc ~size:hdr
          (MaxDec { upto = a.x_max_dec });
      if a.x_is_coord then coord_on_version t a learner version
      else begin
        let next = successor a.x_ring a.x_idx in
        if next >= 0 then
          Simnet.send t.net ~src:a.x_proc ~dst:t.accs.(next).x_proc ~size:hdr
            (Version { learner; version })
      end
  | Gc { floor } -> (
      acc_gc t a floor;
      (* The prefix below the advancing floor was applied by f+1 learners
         and will never be repaired again: a catching-up joiner skips it. *)
      match a.x_catchup with
      | Some cu ->
          Od.fast_forward cu.cu_od (Stdlib.min floor cu.cu_upto);
          catchup_pump t a
      | None -> ())
  | RetransReq { inst; acceptor } -> (
      match Hashtbl.find_opt a.x_votes inst with
      | Some (_, v, ps) ->
          Simnet.send t.net ~src:a.x_proc ~dst:t.accs.(acceptor).x_proc
            ~size:(v.size + hdr)
            (Retrans { inst; value = v; parts = ps })
      | None -> ())
  | RepairReq { insts; learner; fwd } -> begin
      (* Serve every decided instance this acceptor knows; forward the rest
         (ring member -> coordinator -> an out-of-ring acceptor, which may
         still hold history the ring has garbage collected).  [fwd] bounds
         the forwarding chain so a request for an instance nobody holds
         cannot circulate forever; the requester's repair cycle re-asks. *)
      let reply_dst =
        if learner >= 0 then t.lrns.(learner).l_proc else t.accs.(-1 - learner).x_proc
      in
      let missing = ref [] in
      List.iter
        (fun i ->
          (* Only genuinely decided instances may be served: a vote — even
             the coordinator's own — can still lose its instance to a
             takeover (the proposal multicast lost, the voter crashed), and
             a repair response is taken as a decision by the requester. *)
          let decided = Hashtbl.mem a.x_decided i in
          match Hashtbl.find_opt a.x_votes i with
          | Some (_, v, ps) when decided ->
              Simnet.send t.net ~src:a.x_proc ~dst:reply_dst ~size:(v.size + hdr)
                (Retrans { inst = i; value = v; parts = ps })
          | _ -> missing := i :: !missing)
        insts;
      if !missing <> [] && fwd < 2 then begin
        let fwd_to b =
          Simnet.send t.net ~src:a.x_proc ~dst:b.x_proc ~size:hdr
            (RepairReq { insts = List.rev !missing; learner; fwd = fwd + 1 })
        in
        let in_ring = List.mem a.x_idx (ring_of t) in
        if a.x_is_coord then begin
          (* The coordinator lacking the value: try an acceptor outside the
             ring (a spare or a retired member of a previous epoch). *)
          match
            Array.fold_left
              (fun acc b ->
                if
                  acc = None && b.x_idx <> a.x_idx
                  && (not (List.mem b.x_idx (ring_of t)))
                  && Simnet.is_alive b.x_proc
                then Some b
                else acc)
              None t.accs
          with
          | Some b -> fwd_to b
          | None -> ()
        end
        else if in_ring then begin
          match coord_opt t with
          | Some c when c.x_idx <> a.x_idx -> fwd_to c
          | _ -> ()
        end
      end
    end
  | Retrans { inst; value; parts } -> begin
      match a.x_catchup with
      | Some cu when inst < cu.cu_upto ->
          (* Catch-up import: store the decided prefix directly — the
             instance is already decided, so no vote is re-forwarded along
             the ring. *)
          if not (Hashtbl.mem a.x_votes inst) then begin
            set_vote a inst (a.x_rnd, value, parts);
            Hashtbl.replace a.x_durable inst true;
            acc_update_mem a
          end;
          if not (Hashtbl.mem a.x_decided inst) then Hashtbl.replace a.x_decided inst ();
          if inst > a.x_max_dec then a.x_max_dec <- inst;
          ignore (Od.offer cu.cu_od ~inst ());
          catchup_pump t a
      | _ ->
          (* An acceptor recovering a lost Phase 2A. *)
          acc_on_p2a t a inst a.x_rnd value parts;
          acc_try_forward t a inst
    end
  | Hb { acc = _; epoch } -> (
      match t.fd with
      | Some fd -> Protocol.Failure_detector.heartbeat ~epoch fd a.x_idx
      | None -> ())
  | _ -> ()

let lrn_handler t l (m : Simnet.msg) =
  match m.payload with
  | P2a { inst; rnd = _; value; parts = _ } -> lrn_on_p2a t l inst value
  | Decision { inst; _ } -> lrn_on_decision t l inst m.payload
  | Retrans { inst; value; parts = _ } ->
      (* A repair response supplies both the decision and the value. *)
      set_val l value;
      Od.note_max l.l_od inst;
      if Od.offer l.l_od ~inst m.payload then begin
        match Simnet.tracer t.net with
        | Some tr ->
            Trace.abegin tr ~pid:(Simnet.pid l.l_proc) ~cat:"ordering" ~name:"deliver-wait"
              ~id:((inst * 256) + l.l_idx) ~ts:(Simnet.now t.net)
        | None -> ()
      end;
      lrn_drain t l
  | Gc { floor } ->
      Od.drop_below l.l_od (Stdlib.min floor (Od.next l.l_od))
  | MaxDec { upto } ->
      if upto > Od.max_seen l.l_od then begin
        Od.note_max l.l_od upto;
        lrn_drain t l;
        repair_cycle t l
      end
  | NewCoord _ -> ()
  | _ -> ()

(* A decision acknowledges the proposer's own items among those it carries. *)
let rec prop_ack p = function
  | [] -> ()
  | (it : Paxos.Value.item) :: rest ->
      (* The pending entry holds this very item: a uid names one item. *)
      if Retry.ack p.p_pending it.uid then p.p_unacked_bytes <- p.p_unacked_bytes - it.isize;
      prop_ack p rest

let prop_handler t p (m : Simnet.msg) =
  match m.payload with
  | Decision { items; _ } -> prop_ack p items
  | NewCoord { acc } ->
      (* Resubmit everything not yet acknowledged to the new coordinator. *)
      Retry.iter p.p_pending (fun uid (it, parts) ->
          Retry.touch p.p_pending ~now_tk:(Simnet.now_tk t.net) uid;
          Simnet.send t.net ~src:p.p_proc ~dst:t.accs.(acc).x_proc
            ~size:(it.Paxos.Value.isize + hdr)
            (Propose { item = it; parts }))
  | _ -> ()

(* --- construction --------------------------------------------------------- *)

let new_proc net role i =
  let node = Simnet.add_node net (Printf.sprintf "mr-%s%d" role i) in
  Simnet.add_proc net node (Printf.sprintf "mr-%s%d" role i)

(* The vote, decision and durability tables hold one GC window of
   instances (≈ 1–2k under load) and start at that size; every other
   table is small or coordinator-only and grows on demand. *)
let new_acc net cfg i ~ring =
  let proc = new_proc net "acc" i in
  let disk =
    match cfg.durability with
    | Memory -> None
    | Sync_disk | Async_disk ->
        Some (Storage.Disk.create (Simnet.engine net) (Printf.sprintf "disk%d" i))
  in
  { x_proc = proc;
    x_idx = i;
    x_rnd = 0;
    x_ring = ring;
    x_is_coord = false;
    x_retired = false;
    x_catchup = None;
    x_votes = Hashtbl.create 4096;
    x_decided = Hashtbl.create 4096;
    x_durable = Hashtbl.create 4096;
    x_held = Hashtbl.create 64;
    x_disk = disk;
    x_done_uids = Uid_set.create ();
    x_mem = 0;
    x_gc_floor = 0;
    x_max_dec = -1;
    c_rnd = 0;
    c_phase1_ok = false;
    c_p1b = 0;
    c_claimed = Hashtbl.create 64;
    c_next_inst = 0;
    c_outstanding = 0;
    c_batch = Batcher.create ~buffer_bytes:cfg.buffer_bytes ~batch_bytes:cfg.batch_bytes ();
    c_insts = Retry.tracker ();
    c_window = cfg.window;
    c_decided = 0;
    c_versions = Hashtbl.create 16;
    c_gc_floor = 0;
    c_seen_uids = Uid_set.create ();
    c_preq = Queue.create ();
    c_rate = Float.Array.make 2 0.0;
    c_rate_timer = false;
    c_rate_limit = cfg.send_rate;
    c_rc_fill = -1 }

let new_lrn proc i ~parts ~active =
  { l_proc = proc;
    l_idx = i;
    l_parts = parts;
    l_od = Od.create ();
    l_vals = Hashtbl.create 64;
    l_val_bytes = 0;
    l_delay = 0.0;
    l_sink = Od.sink ();
    l_fc_sent = false;
    l_repair = Od.repairer ();
    l_active = active;
    l_step = (fun _ _ -> false);
    l_cost = (fun () -> 0.0);
    l_deliver = (fun _ _ -> ()) }

(* Build the learner's delivery callbacks and install its handler. *)
let lrn_install t l =
  l.l_step <- lrn_step t l;
  l.l_cost <- (fun () -> l.l_delay);
  l.l_deliver <- (fun inst v -> t.deliver ~learner:l.l_idx ~inst v);
  Simnet.set_handler l.l_proc (lrn_handler t l)

let create ?speculative ?learner_nodes net cfg ~n_proposers ~n_learners ~learner_parts
    ~deliver =
  let n_acc = n_acceptors cfg in
  let mk_lrn_proc i =
    match learner_nodes with
    | Some nodes when i < Array.length nodes ->
        Simnet.add_proc net nodes.(i) (Printf.sprintf "mr-lrn%d" i)
    | _ -> new_proc net "lrn" i
  in
  let accs = Array.init n_acc (fun i -> new_acc net cfg i ~ring:[]) in
  let lrns =
    Array.init n_learners (fun i -> new_lrn (mk_lrn_proc i) i ~parts:(learner_parts i) ~active:true)
  in
  let props =
    Array.init n_proposers (fun i ->
        { p_proc = new_proc net "prop" i;
          p_idx = i;
          p_pending = Retry.tracker ();
          p_unacked_bytes = 0;
          p_buffer = cfg.proposer_buffer })
  in
  (* Initial ring: acceptors 0..f-1 then f as coordinator. *)
  let ring = List.init (cfg.f + 1) Fun.id in
  let coord_idx = cfg.f in
  let part_groups =
    Array.init (Stdlib.max 1 cfg.partitions) (fun p ->
        Simnet.new_group net (Printf.sprintf "part%d" p))
  in
  let dec_group = Simnet.new_group net "decision" in
  (* In-ring acceptors subscribe everywhere; learners to their partitions. *)
  Array.iter
    (fun a ->
      if List.mem a.x_idx ring then begin
        Array.iter (fun g -> Simnet.join g a.x_proc) part_groups;
        Simnet.join dec_group a.x_proc
      end)
    accs;
  Array.iter
    (fun l ->
      List.iter
        (fun p -> if p < Array.length part_groups then Simnet.join part_groups.(p) l.l_proc)
        l.l_parts;
      Simnet.join dec_group l.l_proc)
    lrns;
  Array.iter (fun p -> Simnet.join dec_group p.p_proc) props;
  let t =
    { net; clock = Sim.Engine.now_cell (Simnet.engine net); cfg;
      ctrs = Protocol.Counters.create (); accs; lrns; props; part_groups; dec_group; deliver;
      speculative; fd = None; next_uid = 0; next_vid = 0; cur_ring = ring; epoch = 0; rc = None;
      done_rc_uids = Hashtbl.create 16 }
  in
  Array.iter
    (fun a ->
      a.x_ring <- ring;
      a.x_is_coord <- a.x_idx = coord_idx;
      Simnet.set_handler a.x_proc (acc_handler t a))
    accs;
  Array.iter
    (fun l ->
      lrn_install t l;
      version_reports t l)
    lrns;
  Array.iter
    (fun p ->
      Simnet.set_handler p.p_proc (prop_handler t p);
      prop_resubmission t p)
    props;
  failure_detection t;
  fc_recovery t;
  p2a_retransmission t;
  start_phase1 t accs.(coord_idx);
  t

let submit t ~proposer ?(parts = [ 0 ]) ~size app =
  let p = t.props.(proposer) in
  if p.p_unacked_bytes + size > p.p_buffer then -1
  else begin
    t.next_uid <- t.next_uid + 1;
    let uid = Paxos.Value.make_uid ~seq:t.next_uid ~origin:proposer in
    let item = { Paxos.Value.uid; isize = size; app; born = Simnet.now t.net } in
    Retry.watch p.p_pending ~now_tk:(Simnet.now_tk t.net) uid (item, parts);
    p.p_unacked_bytes <- p.p_unacked_bytes + size;
    let ci = coord_index t.accs 0 in
    (* With no live coordinator the item is resubmitted when a NewCoord
       announcement arrives. *)
    if ci >= 0 then
      Simnet.send t.net ~src:p.p_proc ~dst:t.accs.(ci).x_proc ~size:(size + hdr)
        (Propose { item; parts });
    uid
  end

let coordinator_proc t =
  match coord_opt t with
  | Some c -> c.x_proc
  | None -> t.accs.(List.hd (List.rev t.cur_ring)).x_proc
let acceptor_procs t = Array.map (fun a -> a.x_proc) t.accs
let learner_proc t i = t.lrns.(i).l_proc
let proposer_proc t i = t.props.(i).p_proc
let ring_size t = List.length (ring_of t)

let kill_coordinator t =
  match coord_opt t with Some c -> Simnet.kill t.net c.x_proc | None -> ()

(* Crash-recovery model (§3.3.5): a crash loses everything not on stable
   storage.  With [Memory] durability the acceptor restarts empty (safe only
   under the majority-never-fails assumption); with the disk modes its
   promises and votes survive and are reloaded before it rejoins. *)
let crash_acceptor t idx =
  let a = t.accs.(idx) in
  Simnet.kill t.net a.x_proc;
  Hashtbl.reset a.x_held;
  Hashtbl.reset a.c_claimed;
  Retry.clear a.c_insts;
  Batcher.clear a.c_batch;
  (* [c_seen_uids] is volatile: keeping it across a restart would suppress
     resubmissions of items that died with the cleared batch.  A later
     Phase 1 re-seeds it from claimed votes before proposals are admitted. *)
  Uid_set.reset a.c_seen_uids;
  Queue.clear a.c_preq;
  a.c_phase1_ok <- false;
  a.c_outstanding <- 0;
  a.c_rc_fill <- -1;
  cancel_catchup a;
  if t.cfg.durability = Memory then begin
    Hashtbl.reset a.x_votes;
    a.x_mem <- 0;
    Hashtbl.reset a.x_decided;
    Hashtbl.reset a.x_durable;
    Uid_set.reset a.x_done_uids;
    a.x_rnd <- 0;
    acc_update_mem a
  end

let restart_acceptor t idx =
  let a = t.accs.(idx) in
  match (t.cfg.durability, a.x_disk) with
  | Memory, _ | _, None -> Simnet.recover t.net a.x_proc
  | _, Some d ->
      (* Reload the persisted state before rejoining. *)
      let bytes = Stdlib.max (64 * 1024) a.x_mem in
      let dur = float_of_int bytes *. 8.0 /. (Storage.Disk.config d).bandwidth in
      ignore (Simnet.after t.net dur (fun () -> Simnet.recover t.net a.x_proc))

let kill_ring_acceptor t pos =
  let ring = ring_of t in
  let idx = List.nth ring pos in
  Simnet.kill t.net t.accs.(idx).x_proc

let set_learner_delay t i d = t.lrns.(i).l_delay <- d

let decided t = Array.fold_left (fun acc a -> acc + a.c_decided) 0 t.accs

let current_window t =
  match coord_opt t with Some c -> c.c_window | None -> 0

let coord_drops t =
  Array.fold_left (fun acc a -> acc + Batcher.drops a.c_batch) 0 t.accs

let disk t pos =
  let ring = ring_of t in
  if pos < List.length ring then t.accs.(List.nth ring pos).x_disk else None

(* --- dynamic membership --------------------------------------------------- *)

let epoch t = t.epoch
let membership t = t.cur_ring
let reconfiguring t = t.rc <> None
let catching_up t idx = t.accs.(idx).x_catchup <> None
let learner_active t i = t.lrns.(i).l_active

(* Grow the acceptor pool with a fresh spare.  It answers Phase 1 and
   repair traffic immediately but joins no ring (and no multicast group)
   until a reconfiguration elects it. *)
let add_acceptor t =
  let i = Array.length t.accs in
  let a = new_acc t.net t.cfg i ~ring:t.cur_ring in
  t.accs <- Array.append t.accs [| a |];
  Simnet.set_handler a.x_proc (acc_handler t a);
  i

(* Create an inactive learner: it joins no group and reports no version
   until a reconfiguration naming it in [add_learners] activates, at which
   point it starts delivering exactly from the activation instance. *)
let stage_learner t ~parts =
  let i = Array.length t.lrns in
  let l = new_lrn (new_proc t.net "lrn" i) i ~parts ~active:false in
  t.lrns <- Array.append t.lrns [| l |];
  lrn_install t l;
  version_reports t l;
  i

(* Submit a membership change as an ordinary proposal (through proposer 0's
   resubmission machinery, so a coordinator crash cannot lose it).  The new
   ring lists acceptor indexes with the coordinator last.  Validation only
   checks what would break safety or liveness outright; everything else —
   timing, failover interleavings, competing commands — is resolved by the
   log order. *)
let reconfigure t ?(add_learners = []) ?(remove_learners = []) ?(retire = []) ~ring () =
  let n = Array.length t.accs in
  let valid_acc i = i >= 0 && i < n && not t.accs.(i).x_retired in
  if ring = [] then invalid_arg "Mring.reconfigure: empty ring";
  if not (List.for_all valid_acc ring) then
    invalid_arg "Mring.reconfigure: ring member out of range or retired";
  if List.length (List.sort_uniq compare ring) <> List.length ring then
    invalid_arg "Mring.reconfigure: duplicate ring member";
  if not (List.for_all valid_acc retire) then
    invalid_arg "Mring.reconfigure: retiree out of range or already retired";
  if List.exists (fun i -> List.mem i ring) retire then
    invalid_arg "Mring.reconfigure: cannot retire a member of the new ring";
  (* Decisions carry all ring votes; any Phase-1 majority of the pool must
     claim every decided value, so the ring must intersect every majority:
     |ring| + majority > n. *)
  let majority = (n / 2) + 1 in
  if List.length ring < n - majority + 1 then
    invalid_arg "Mring.reconfigure: ring too small for quorum intersection";
  let valid_lrn i = i >= 0 && i < Array.length t.lrns in
  if not (List.for_all valid_lrn add_learners) then
    invalid_arg "Mring.reconfigure: added learner out of range";
  if not (List.for_all valid_lrn remove_learners) then
    invalid_arg "Mring.reconfigure: removed learner out of range";
  submit t ~proposer:0 ~parts:[ 0 ] ~size:64
    (ReconfigCmd { ring; add_lrns = add_learners; rm_lrns = remove_learners; retire })

module Testing = struct
  let mem_consistent t =
    let recount tbl size = Hashtbl.fold (fun _ x n -> n + size x) tbl 0 in
    Array.for_all
      (fun a -> a.x_mem = recount a.x_votes (fun (_, v, _) -> v.Paxos.Value.size))
      t.accs
    && Array.for_all
         (fun l -> l.l_val_bytes = recount l.l_vals (fun v -> v.Paxos.Value.size))
         t.lrns

  let dedup_sparse t =
    Array.fold_left
      (fun n a -> n + Uid_set.sparse_count a.x_done_uids + Uid_set.sparse_count a.c_seen_uids)
      0 t.accs

  let is_p1b = function P1b _ -> true | _ -> false
end
