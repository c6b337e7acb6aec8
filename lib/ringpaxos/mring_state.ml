(* M-Ring's shared state: the configuration, the wire payloads, the
   per-role records and the ring helpers every role module uses. *)

type durability = Memory | Sync_disk | Async_disk

type config = {
  f : int;
  window : int;
  batch_bytes : int;
  durability : durability;
  fc_threshold : int;
  hb_timeout : float;
  gc_period : float;
  partitions : int;
  proposer_buffer : int;
}

let default_config =
  { f = 2;
    window = 64;
    batch_bytes = 8192;
    durability = Memory;
    fc_threshold = 64;
    hb_timeout = 0.25;
    gc_period = 0.1;
    partitions = 1;
    proposer_buffer = 16 * 1024 * 1024 }

(* Fixed settings: the coordinator's proposal buffer (160 MB in §3.5.2),
   the age at which it seals a partial batch, its Phase 2A pacing ceiling
   in bit/s, the flow-control regrowth cadence, the heartbeat period, the
   Phase 2A retransmission and gap-repair timeout, and the alpha of
   log-ordered reconfiguration (decided at [i], active at [i + alpha]). *)
let buffer_bytes = 160 * 1024 * 1024
let batch_timeout = 5.0e-4
let send_rate = 0.85e9
let fc_recover_period = 0.1
let hb_period = 0.02
let retrans_timeout = 5.0e-3
let reconfig_alpha = 64

(* Derived here once: computed at a call site in another module, a float
   is boxed on every call. *)
let retrans_age = 2.0 *. retrans_timeout  (* an undecided Phase 2A's age at re-multicast *)
let repair_cooldown = 4.0 *. retrans_timeout

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
          (* the acceptor's pruned votes' uids, as the floor plus the uids
             above it: a new coordinator without votes of its own (a promoted
             spare) needs them to suppress resubmissions of items decided,
             delivered and pruned before its tenure *)
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
      (* [learner < 0] encodes acceptor [-1 - learner] (a joiner catching
         up).  [fwd] counts forwarding hops, so an instance nobody holds
         cannot ping-pong between the coordinator and a spare forever. *)
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
         Blocks"): decided at [i], it activates at [i + reconfig_alpha]. *)

(* A joiner's catch-up: a unit-valued [Od] tracks which instances below
   [cu_upto] it has recovered through the learners' gap repair. *)
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
  x_log : Acc_log.t;
  x_held : (int, int * int) Hashtbl.t;  (* inst -> (rnd, vid): P2B awaiting P2A/durability *)
  x_disk : Storage.Disk.t option;
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
  p_pending : (int, Paxos.Value.item * int list) Retry.tracker;
      (* uid -> unacknowledged item, stamped with its last send *)
  mutable p_unacked_bytes : int;  (* bounded by [cfg.proposer_buffer] *)
}

(* The pending membership change (one at a time), from proposal to
   activation.  It is derived from the log (the [ReconfigCmd] value and its
   instance), so any coordinator, one taking over mid-handoff included,
   rebuilds it from the claimed votes of Phase 1. *)
type reconfig = {
  rc_uid : int;  (* item uid of the ReconfigCmd, for resubmission dedup *)
  rc_epoch : int;
  rc_activate : int;  (* the command's instance + reconfig_alpha *)
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

(* Index of the live coordinator in [accs] from [i] on, -1 if none: the
   per-command [submit] scan builds no option. *)
let rec coord_index accs i =
  if i >= Array.length accs then -1
  else
    let a = accs.(i) in
    if a.x_is_coord && (not a.x_retired) && Simnet.is_alive a.x_proc then i
    else coord_index accs (i + 1)

let coord_opt t = match coord_index t.accs 0 with -1 -> None | i -> Some t.accs.(i)

let ring_of t = match coord_opt t with Some c -> c.x_ring | None -> t.cur_ring

(* The first alive ring member other than acceptor [skip], walking the
   ring from position [k]: learners and joiners starting at their own
   index spread their repair and report traffic over the ring. *)
let ring_pick t k ~skip =
  let ring = ring_of t in
  let n = List.length ring in
  let rec pick j =
    if j >= n then None
    else
      let b = t.accs.(List.nth ring ((k + j) mod n)) in
      if b.x_idx <> skip && Simnet.is_alive b.x_proc then Some b else pick (j + 1)
  in
  pick 0

(* Successor of acceptor [idx] in the current ring, -1 if it has none (the
   coordinator, or a non-member); the ring is stored with the coordinator
   last, and the chain starts at the first element. *)
let rec successor ring idx =
  match ring with a :: (b :: _ as rest) -> if a = idx then b else successor rest idx | _ -> -1

let rec intersects l1 l2 =
  match l1 with [] -> false | x :: rest -> List.mem x l2 || intersects rest l2

(* Partition sets are kept canonical (sorted, duplicate-free): equal sets
   share a batch key and each group is multicast to once.  Empty and
   singleton sets already are, and skip the sort, which would copy them. *)
let canon_parts = function ([] | [ _ ]) as parts -> parts | parts -> List.sort_uniq compare parts

(* --- reconfiguration bookkeeping --------------------------------------- *)

(* Record (or refresh) the pending membership change when a value with a
   not-yet-activated ReconfigCmd is proposed or decided.  Activation is
   pinned to the proposal instance, so the coordinator caps its pipeline at
   [inst + alpha] from the proposal on; a takeover re-derives the record
   from the claimed vote, or at the resubmission's fresh instance if the
   proposal was lost.  A loop, not [List.find_map]: it runs on every
   proposed and decided value, and an ordinary one must cost no closure. *)
let rec note_rc t inst (items : Paxos.Value.item list) ~decided =
  match items with
  | [] -> ()
  | { uid; app = ReconfigCmd { ring; add_lrns; rm_lrns; retire }; _ } :: _
    when not (Hashtbl.mem t.done_rc_uids uid) ->
      let was = match t.rc with Some rc when rc.rc_uid = uid -> rc.rc_decided | _ -> false in
      t.rc <-
        Some
          { rc_uid = uid;
            rc_epoch = t.epoch + 1;
            rc_activate = inst + reconfig_alpha;
            rc_ring = ring;
            rc_add_lrns = add_lrns;
            rc_rm_lrns = rm_lrns;
            rc_retire = retire;
            rc_decided = decided || was }
  | _ :: rest -> note_rc t inst rest ~decided

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

(* [l_val_bytes] sums the value sizes in [l_vals]: inserts and replaces go
   through [set_val] and removals subtract in place, so reporting memory
   is O(1) instead of a walk over the GC window. *)
let set_val l (v : Paxos.Value.t) =
  (match Hashtbl.find_opt l.l_vals v.vid with
  | Some old -> l.l_val_bytes <- l.l_val_bytes - old.Paxos.Value.size
  | None -> ());
  Hashtbl.replace l.l_vals v.vid v;
  l.l_val_bytes <- l.l_val_bytes + v.size

let acc_update_mem a = Simnet.set_mem a.x_proc (Acc_log.mem_bytes a.x_log)
let lrn_update_mem l = Simnet.set_mem l.l_proc (l.l_val_bytes + (Od.size l.l_od * 16))

let alive_acceptors t =
  Array.to_list t.accs
  |> List.filter (fun a -> (not a.x_retired) && Simnet.is_alive a.x_proc)

(* [op] ([Simnet.join] or [Simnet.leave]) an acceptor's groups (every
   partition's and the decisions') or a learner's (its partitions' and the
   decisions').  The order of joins is the order of multicast fan-out. *)
let acc_subscribe t op a =
  Array.iter (fun g -> op g a.x_proc) t.part_groups;
  op t.dec_group a.x_proc

let lrn_subscribe t op l =
  List.iter
    (fun p -> if p < Array.length t.part_groups then op t.part_groups.(p) l.l_proc)
    l.l_parts;
  op t.dec_group l.l_proc
