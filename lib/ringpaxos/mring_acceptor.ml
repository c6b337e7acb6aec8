(* M-Ring's acceptor: the Phase 2 chain, durability, garbage collection
   and the message handler of every acceptor (the coordinator's messages
   included, since the coordinator is an acceptor). *)

open Mring_state
open Mring_coord

(* [p] to [a]'s successor in the ring, if it has one. *)
let to_successor t a p =
  let next = successor a.x_ring a.x_idx in
  if next >= 0 then Simnet.send t.net ~src:a.x_proc ~dst:t.accs.(next).x_proc ~size:hdr p

let forward_p2b t a inst rnd vid =
  let next = successor a.x_ring a.x_idx in
  if next >= 0 then
    Simnet.send t.net ~src:a.x_proc ~dst:t.accs.(next).x_proc ~size:hdr (P2b { inst; rnd; vid })
  else if a.x_is_coord then coord_decide t a inst vid

let acc_try_forward t a inst =
  match Hashtbl.find a.x_held inst with
  | rnd, vid ->
      if Acc_log.ready a.x_log inst vid then begin
        Hashtbl.remove a.x_held inst;
        forward_p2b t a inst rnd vid
      end
  | exception Not_found -> ()

(* The vote is on stable storage (at once with [Memory] durability, which
   calls this directly rather than through a closure).  The write of a
   vote since replaced marks and forwards nothing. *)
let acc_after_durable t a inst rnd vid =
  if Acc_log.mark_durable a.x_log inst ~rnd ~vid then
    (* First in-ring acceptor spontaneously starts the Phase 2B chain. *)
    if (not a.x_is_coord) && a.x_ring <> [] && List.hd a.x_ring = a.x_idx then
      forward_p2b t a inst rnd vid
    else acc_try_forward t a inst

let acc_on_p2a t a inst rnd (v : Paxos.Value.t) parts =
  (* A retransmitted Phase 2A for a value already voted (and possibly still
     being persisted) must not trigger another vote or disk write. *)
  if Acc_log.same_vote a.x_log inst rnd v.vid then begin
    (* The coordinator still lacks this instance.  Mid-chain acceptors
       re-forward their held P2B, but the chain head holds none: its own
       P2B may be the lost message (a partition right after the vote), and
       every further retransmission is a duplicate of the same round, so it
       re-sends or the chain never restarts. *)
    if
      (not a.x_is_coord) && a.x_ring <> []
      && List.hd a.x_ring = a.x_idx
      && (Acc_log.peek a.x_log inst).s_durable
    then forward_p2b t a inst rnd v.vid
    else acc_try_forward t a inst
  end
  else if rnd >= a.x_rnd then begin
    a.x_rnd <- rnd;
    Acc_log.set_vote a.x_log inst rnd v parts;
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
  else if Acc_log.ready a.x_log inst vid then forward_p2b t a inst rnd vid
  else begin
    (* Phase 2A not yet ip-delivered (or not yet durable): hold the vote
       and ask the coordinator to retransmit if the gap persists. *)
    Hashtbl.replace a.x_held inst (rnd, vid);
    ignore
      (Simnet.after t.net retrans_timeout (fun () ->
           if Hashtbl.mem a.x_held inst && Simnet.is_alive a.x_proc then begin
             match coord_opt t with
             | Some c ->
                 Simnet.send t.net ~src:a.x_proc ~dst:c.x_proc ~size:hdr
                   (RetransReq { inst; acceptor = a.x_idx })
             | None -> ()
           end))
  end

(* --- garbage collection ------------------------------------------------- *)

let acc_gc t a floor =
  (match Simnet.tracer t.net with
  | Some tr ->
      Trace.instant tr ~pid:(Simnet.pid a.x_proc) ~cat:"proto" ~name:"gc" ~ts:(Simnet.now t.net)
  | None -> ());
  Acc_log.prune a.x_log ~floor;
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
          Acc_log.fold a.x_log
            (fun i s l -> if s.s_rnd >= 0 then (i, s.s_rnd, s.s_val, s.s_parts) :: l else l)
            []
        in
        (* The floor costs one 8-byte word once it has moved: an empty set
           still costs nothing. *)
        let done_floor = Uid_set.floor (Acc_log.done_uids a.x_log) in
        let done_uids = Uid_set.sparse_list (Acc_log.done_uids a.x_log) in
        let done_words = List.length done_uids + if done_floor > 1 then 1 else 0 in
        Simnet.send t.net ~src:a.x_proc ~dst:t.accs.(cidx).x_proc
          ~size:(hdr + (List.length votes * 24) + (done_words * 8))
          (P1b { rnd; acc = a.x_idx; floor = Acc_log.gc_floor a.x_log; votes; done_floor; done_uids })
      end
  | P1b { rnd; acc = _; floor; votes; done_floor; done_uids } ->
      if a.x_is_coord && rnd = a.c_rnd && not a.c_phase1_ok then begin
        if floor > a.c_next_inst then a.c_next_inst <- floor;
        (* Decided-and-pruned items exist only as uids now; without them a
           promoted spare would re-order a resubmission of an item every
           learner applied.  Any Phase-1 majority holds a ring member of every
           earlier epoch, so merging each reply's uids covers all such items;
           the log keeps them too, for a later handoff to carry on. *)
        Uid_set.raise_floor a.c_seen_uids done_floor;
        Uid_set.raise_floor (Acc_log.done_uids a.x_log) done_floor;
        List.iter
          (fun uid ->
            Uid_set.add a.c_seen_uids uid;
            Uid_set.add (Acc_log.done_uids a.x_log) uid)
          done_uids;
        List.iter (fun (inst, vrnd, vval, parts) -> claim a inst vrnd vval parts) votes;
        a.c_p1b <- a.c_p1b + 1;
        (* With its own state, [n/2] more replies make a majority of the
           n-acceptor pool.  Retired acceptors stay in the pool and answer
           Phase 1, so quorums before and after a reconfiguration intersect. *)
        if a.c_p1b >= Array.length t.accs / 2 then begin
          a.c_phase1_ok <- true;
          (* A majority's claimed votes cover every decided value, so marking
             their uids seen stops a resubmission from re-deciding an item
             under a second instance; [drain] replays the undecided ones. *)
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
      if not a.x_is_coord then Acc_log.mark_decided a.x_log inst
  | SlowDown _ as sd ->
      (* Forward along the ring until the coordinator reacts. *)
      if a.x_is_coord then fc_slow_down t a else to_successor t a sd
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
      else to_successor t a (Version { learner; version })
  | Gc { floor } -> (
      acc_gc t a floor;
      (* The prefix below the advancing floor was applied by f+1 learners
         and will never be repaired again: a catching-up joiner skips it. *)
      match a.x_catchup with
      | Some cu ->
          Od.fast_forward cu.cu_od (Stdlib.min floor cu.cu_upto);
          catchup_pump t a
      | None -> ())
  | RetransReq { inst; acceptor } ->
      let s = Acc_log.peek a.x_log inst in
      if s.s_rnd >= 0 then
        Simnet.send t.net ~src:a.x_proc ~dst:t.accs.(acceptor).x_proc
          ~size:(s.s_val.size + hdr)
          (Retrans { inst; value = s.s_val; parts = s.s_parts })
  | RepairReq { insts; learner; fwd } -> begin
      (* Serve every decided instance this acceptor knows; forward the rest
         (ring member -> coordinator -> an out-of-ring acceptor, which may
         hold history the ring collected).  [fwd] bounds the chain, so a
         request nobody can serve dies; the requester's repair re-asks. *)
      let reply_dst =
        if learner >= 0 then t.lrns.(learner).l_proc else t.accs.(-1 - learner).x_proc
      in
      let missing = ref [] in
      List.iter
        (fun i ->
          (* Only decided instances: the requester takes a reply as a
             decision, and a vote, even the coordinator's, can still lose its
             instance to a takeover (multicast lost, voter crashed). *)
          let s = Acc_log.peek a.x_log i in
          if s.s_decided && s.s_rnd >= 0 then
            Simnet.send t.net ~src:a.x_proc ~dst:reply_dst ~size:(s.s_val.size + hdr)
              (Retrans { inst = i; value = s.s_val; parts = s.s_parts })
          else missing := i :: !missing)
        insts;
      if !missing <> [] && fwd < 2 then begin
        let fwd_to b =
          Simnet.send t.net ~src:a.x_proc ~dst:b.x_proc ~size:hdr
            (RepairReq { insts = List.rev !missing; learner; fwd = fwd + 1 })
        in
        let ring = ring_of t in
        Option.iter fwd_to
          (if a.x_is_coord then
             (* The coordinator lacking the value: try an acceptor outside
                the ring (a spare or a retired member of a previous epoch). *)
             Array.find_opt
               (fun b ->
                 b.x_idx <> a.x_idx && (not (List.mem b.x_idx ring)) && Simnet.is_alive b.x_proc)
               t.accs
           else if List.mem a.x_idx ring then coord_opt t
           else None)
      end
    end
  | Retrans { inst; value; parts } -> begin
      match a.x_catchup with
      | Some cu when inst < cu.cu_upto ->
          (* Catch-up import: store the decided prefix directly — the
             instance is already decided, so no vote is re-forwarded along
             the ring. *)
          if (Acc_log.peek a.x_log inst).s_rnd < 0 then begin
            Acc_log.set_vote a.x_log inst a.x_rnd value parts;
            ignore (Acc_log.mark_durable a.x_log inst ~rnd:a.x_rnd ~vid:value.vid);
            acc_update_mem a
          end;
          Acc_log.mark_decided a.x_log inst;
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
