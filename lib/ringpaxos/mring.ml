(* M-Ring Paxos assembled from its role modules (DESIGN.md, "M-Ring's
   modules"): failure handling, the proposer, construction and the public
   interface. *)

include Mring_state
open Mring_coord
open Mring_acceptor
open Mring_learner

(* --- proposer ------------------------------------------------------------ *)

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

(* The failure detector drives both sides of §3.3.4: a leading coordinator
   heartbeats the other acceptors and swaps dead ring members for spares;
   with none leading, the first alive acceptor gone stale takes over. *)
let failure_detection t =
  let emit () =
    match coord_opt t with
    | None -> ()
    | Some c ->
        (* Heartbeats to every alive non-retired acceptor (spares too, so a
           spare's promotion timeout measures real silence)... *)
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
      (Protocol.Failure_detector.create t.net ~hb_period ~hb_timeout:t.cfg.hb_timeout
         ~leader:(fun () -> coord_opt t <> None) ~emit ~on_suspect)

(* --- construction --------------------------------------------------------- *)

let new_proc net role i =
  let node = Simnet.add_node net (Printf.sprintf "mr-%s%d" role i) in
  Simnet.add_proc net node (Printf.sprintf "mr-%s%d" role i)

(* The acceptor log starts at one GC window of instances (see
   [Acc_log.create]); every other table is small or coordinator-only and
   grows on demand. *)
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
    x_log = Acc_log.create ();
    x_held = Hashtbl.create 64;
    x_disk = disk;
    x_max_dec = -1;
    c_rnd = 0;
    c_phase1_ok = false;
    c_p1b = 0;
    c_claimed = Hashtbl.create 64;
    c_next_inst = 0;
    c_outstanding = 0;
    c_batch = Batcher.create ~buffer_bytes ~batch_bytes:cfg.batch_bytes ();
    c_insts = Retry.tracker ();
    c_window = cfg.window;
    c_decided = 0;
    c_versions = Hashtbl.create 16;
    c_gc_floor = 0;
    c_seen_uids = Uid_set.create ();
    c_preq = Queue.create ();
    c_rate = Float.Array.make 2 0.0;
    c_rate_timer = false;
    c_rate_limit = send_rate;
    c_rc_fill = -1 }

let create ?speculative ?learner_nodes net cfg ~n_proposers ~n_learners ~learner_parts
    ~deliver =
  let mk_lrn_proc i =
    match learner_nodes with
    | Some nodes when i < Array.length nodes ->
        Simnet.add_proc net nodes.(i) (Printf.sprintf "mr-lrn%d" i)
    | _ -> new_proc net "lrn" i
  in
  let accs = Array.init ((2 * cfg.f) + 1) (fun i -> new_acc net cfg i ~ring:[]) in
  let lrns =
    Array.init n_learners (fun i -> new_lrn (mk_lrn_proc i) i ~parts:(learner_parts i) ~active:true)
  in
  let props =
    Array.init n_proposers (fun i ->
        { p_proc = new_proc net "prop" i;
          p_pending = Retry.tracker ();
          p_unacked_bytes = 0 })
  in
  (* Initial ring: acceptors 0..f-1 then f as coordinator. *)
  let ring = List.init (cfg.f + 1) Fun.id in
  let coord_idx = cfg.f in
  let part_groups =
    Array.init (Stdlib.max 1 cfg.partitions) (fun p ->
        Simnet.new_group net (Printf.sprintf "part%d" p))
  in
  let dec_group = Simnet.new_group net "decision" in
  let t =
    { net; clock = Sim.Engine.now_cell (Simnet.engine net); cfg;
      ctrs = Protocol.Counters.create (); accs; lrns; props; part_groups; dec_group; deliver;
      speculative; fd = None; next_uid = 0; next_vid = 0; cur_ring = ring; epoch = 0; rc = None;
      done_rc_uids = Hashtbl.create 16 }
  in
  (* In-ring acceptors subscribe everywhere; learners to their partitions. *)
  Array.iter (fun a -> if List.mem a.x_idx ring then acc_subscribe t Simnet.join a) accs;
  Array.iter (lrn_subscribe t Simnet.join) lrns;
  Array.iter (fun p -> Simnet.join dec_group p.p_proc) props;
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
  if p.p_unacked_bytes + size > t.cfg.proposer_buffer then -1
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
let kill_coordinator t = match coord_opt t with Some c -> Simnet.kill t.net c.x_proc | None -> ()
let kill_ring_acceptor t pos = Simnet.kill t.net t.accs.(List.nth (ring_of t) pos).x_proc

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
    Acc_log.clear a.x_log;
    a.x_rnd <- 0;
    acc_update_mem a
  end

let restart_acceptor t idx =
  let a = t.accs.(idx) in
  match (t.cfg.durability, a.x_disk) with
  | Memory, _ | _, None -> Simnet.recover t.net a.x_proc
  | _, Some d ->
      (* Reload the persisted state before rejoining. *)
      let bytes = Stdlib.max (64 * 1024) (Acc_log.vote_bytes a.x_log) in
      let dur = float_of_int bytes *. 8.0 /. (Storage.Disk.config d).bandwidth in
      ignore (Simnet.after t.net dur (fun () -> Simnet.recover t.net a.x_proc))

let set_learner_delay t i d = t.lrns.(i).l_delay <- d
let decided t = Array.fold_left (fun acc a -> acc + a.c_decided) 0 t.accs
let current_window t = match coord_opt t with Some c -> c.c_window | None -> 0
let coord_drops t = Array.fold_left (fun acc a -> acc + Batcher.drops a.c_batch) 0 t.accs

let disk t pos =
  let ring = ring_of t in
  if pos < List.length ring then t.accs.(List.nth ring pos).x_disk else None

(* --- dynamic membership --------------------------------------------------- *)

let epoch t = t.epoch
let membership t = t.cur_ring
let reconfiguring t = t.rc <> None
let catching_up t idx = t.accs.(idx).x_catchup <> None
let learner_active t i = t.lrns.(i).l_active

let add_acceptor t =
  let i = Array.length t.accs in
  let a = new_acc t.net t.cfg i ~ring:t.cur_ring in
  t.accs <- Array.append t.accs [| a |];
  Simnet.set_handler a.x_proc (acc_handler t a);
  i

let stage_learner t ~parts =
  let i = Array.length t.lrns in
  let l = new_lrn (new_proc t.net "lrn" i) i ~parts ~active:false in
  t.lrns <- Array.append t.lrns [| l |];
  lrn_install t l;
  version_reports t l;
  i

(* An ordinary proposal from proposer 0, whose resubmission a coordinator
   crash cannot defeat.  Validation only refuses what breaks safety or
   liveness outright; timing, failovers and competing commands are
   resolved by the log order. *)
let reconfigure t ?(add_learners = []) ?(remove_learners = []) ?(retire = []) ~ring () =
  let n = Array.length t.accs in
  let valid_acc i = i >= 0 && i < n && not t.accs.(i).x_retired in
  let valid_lrn i = i >= 0 && i < Array.length t.lrns in
  (* Decisions carry all ring votes; any Phase-1 majority of the pool must
     claim every decided value, so the ring must intersect every majority:
     |ring| + majority > n. *)
  let majority = (n / 2) + 1 in
  List.iter
    (fun (bad, why) -> if bad then invalid_arg ("Mring.reconfigure: " ^ why))
    [ (ring = [], "empty ring");
      (not (List.for_all valid_acc ring), "ring member out of range or retired");
      (List.length (List.sort_uniq compare ring) <> List.length ring, "duplicate ring member");
      (not (List.for_all valid_acc retire), "retiree out of range or already retired");
      (List.exists (fun i -> List.mem i ring) retire, "cannot retire a member of the new ring");
      (List.length ring < n - majority + 1, "ring too small for quorum intersection");
      (not (List.for_all valid_lrn add_learners), "added learner out of range");
      (not (List.for_all valid_lrn remove_learners), "removed learner out of range") ];
  submit t ~proposer:0 ~parts:[ 0 ] ~size:64
    (ReconfigCmd { ring; add_lrns = add_learners; rm_lrns = remove_learners; retire })

module Testing = struct
  let mem_consistent t =
    Array.for_all (fun a -> Acc_log.consistent a.x_log) t.accs
    && Array.for_all
         (fun l -> l.l_val_bytes = Hashtbl.fold (fun _ v n -> n + v.Paxos.Value.size) l.l_vals 0)
         t.lrns

  let dedup_sparse t =
    Array.fold_left
      (fun n a ->
        n + Uid_set.sparse_count (Acc_log.done_uids a.x_log) + Uid_set.sparse_count a.c_seen_uids)
      0 t.accs

  let is_p1b = function P1b _ -> true | _ -> false

  module Log = Acc_log

  let p2a ~inst ~rnd value = P2a { inst; rnd; value; parts = [ 0 ] }
  let p2b ~inst ~rnd ~vid = P2b { inst; rnd; vid }
  let p2b_vid = function P2b { vid; _ } -> vid | _ -> -1
end
