type config = {
  dissemination : [ `Mcast | `Ucast ];
  window : int;
  batch_bytes : int;
  batch_timeout : float;
  extra_cpu_per_instance : float;
  hb_period : float;
  hb_timeout : float;
  repair_timeout : float;
  resubmit_timeout : float;
}

let default_config =
  { dissemination = `Mcast;
    window = 32;
    batch_bytes = 0;
    batch_timeout = 5.0e-4;
    extra_cpu_per_instance = 0.0;
    hb_period = 0.02;
    hb_timeout = 0.2;
    repair_timeout = 0.01;
    resubmit_timeout = 0.5 }

let hdr = 64 (* protocol header bytes on every message *)

type Simnet.payload +=
  | Propose of Value.item
  | P1a of { rnd : int; coord : int }
  | P1b of { rnd : int; acc : int; votes : (int * int * Value.t) list }
  | P2a of { inst : int; rnd : int; value : Value.t }
  | P2b of { inst : int; rnd : int; vid : int }
  | Decision of { inst : int; vid : int; value : Value.t option }
  | Ack of { uid : int }
  | RepairReq of { inst : int; learner : int }
  | Heartbeat of { coord : int }
  | NewCoord of { coord : int }

type inst_info = {
  i_value : Value.t;
  mutable i_votes : int;
  mutable i_decided : bool;
}

type coord = {
  c_proc : Simnet.proc;
  c_rank : int;
  mutable c_active : bool;
  mutable c_rnd : int;
  mutable c_phase1_ok : bool;
  mutable c_p1b : int;
  c_claimed : (int, int * Value.t) Hashtbl.t; (* inst -> (vrnd, value) *)
  mutable c_next_inst : int;
  mutable c_outstanding : int;
  c_pending : Value.item Queue.t;
  mutable c_pending_bytes : int;
  mutable c_batch : Value.item list;
  mutable c_batch_size : int;
  mutable c_batch_timer : Sim.Engine.handle option;
  c_insts : (int, inst_info) Hashtbl.t;
  c_decisions : (int, Value.t) Hashtbl.t;
  mutable c_last_hb : float;
  mutable c_decided : int;
}

type acc = {
  a_proc : Simnet.proc;
  a_idx : int;
  mutable a_rnd : int;
  a_votes : (int, int * Value.t) Hashtbl.t; (* inst -> (vrnd, vval) *)
}

type lrn = {
  l_proc : Simnet.proc;
  l_idx : int;
  mutable l_next : int;
  l_ready : (int, Value.t) Hashtbl.t; (* decided, awaiting in-order delivery *)
  l_vals : (int, Value.t) Hashtbl.t; (* vid -> value (mcast dissemination) *)
  l_wait : (int, int) Hashtbl.t; (* inst -> vid, decision without value yet *)
  mutable l_repairing : bool;
}

type prop = {
  p_proc : Simnet.proc;
  p_idx : int;
  mutable p_coord : int; (* rank of believed-active coordinator *)
  p_unacked : (int, Value.item) Hashtbl.t;
  mutable p_unacked_bytes : int;
  p_last_sent : (int, float) Hashtbl.t;
  mutable p_buffer : int;  (* client-side buffer bound, bytes *)
}

type t = {
  net : Simnet.t;
  cfg : config;
  coords : coord array;
  accs : acc array;
  lrns : lrn array;
  props : prop array;
  g_all : Simnet.group; (* acceptors + learners + coordinators *)
  deliver : learner:int -> inst:int -> Value.t -> unit;
  mutable next_uid : int;
  mutable next_vid : int;
}

let majority t = (Array.length t.accs / 2) + 1

let active_coord t =
  let found = ref None in
  Array.iter (fun c -> if c.c_active && Simnet.is_alive c.c_proc && !found = None then found := Some c) t.coords;
  !found

(* --- coordinator ----------------------------------------------------- *)

let send_to_acceptors t c ~size payload =
  match t.cfg.dissemination with
  | `Mcast -> Simnet.mcast t.net ~src:c.c_proc t.g_all ~size payload
  | `Ucast ->
      Array.iter (fun a -> Simnet.send t.net ~src:c.c_proc ~dst:a.a_proc ~size payload) t.accs

let announce_decision t c inst (v : Value.t) =
  match t.cfg.dissemination with
  | `Mcast ->
      (* Learners already hold the value from the Phase 2A multicast. *)
      Simnet.mcast t.net ~src:c.c_proc t.g_all ~size:hdr (Decision { inst; vid = v.vid; value = None })
  | `Ucast ->
      Array.iter
        (fun l ->
          Simnet.send t.net ~src:c.c_proc ~dst:l.l_proc ~size:(v.size + hdr)
            (Decision { inst; vid = v.vid; value = Some v }))
        t.lrns

let ack_items t c (v : Value.t) =
  List.iter
    (fun (it : Value.item) ->
      let origin = Value.uid_origin it.uid in
      if origin < Array.length t.props then
        Simnet.send t.net ~src:c.c_proc ~dst:t.props.(origin).p_proc ~size:hdr (Ack { uid = it.uid }))
    v.items

let propose_instance t c inst (v : Value.t) =
  Hashtbl.replace c.c_insts inst { i_value = v; i_votes = 0; i_decided = false };
  c.c_outstanding <- c.c_outstanding + 1;
  Simnet.charge_cpu t.net c.c_proc t.cfg.extra_cpu_per_instance;
  let p2a = P2a { inst; rnd = c.c_rnd; value = v } in
  match t.cfg.dissemination with
  | `Mcast -> Simnet.mcast t.net ~src:c.c_proc t.g_all ~size:(v.size + hdr) p2a
  | `Ucast ->
      Array.iter
        (fun a -> Simnet.send t.net ~src:c.c_proc ~dst:a.a_proc ~size:(v.size + hdr) p2a)
        t.accs

let seal_batch t c =
  (* Pop pending items up to the batch size (or a single item when batching
     is disabled). *)
  if t.cfg.batch_bytes <= 0 then begin
    if Queue.is_empty c.c_pending then []
    else begin
      let it = Queue.pop c.c_pending in
      c.c_pending_bytes <- c.c_pending_bytes - it.Value.isize;
      [ it ]
    end
  end
  else begin
    let items = ref [] and size = ref 0 in
    let continue = ref true in
    while !continue && not (Queue.is_empty c.c_pending) do
      let (it : Value.item) = Queue.peek c.c_pending in
      if !size > 0 && !size + it.isize > t.cfg.batch_bytes then continue := false
      else begin
        ignore (Queue.pop c.c_pending);
        c.c_pending_bytes <- c.c_pending_bytes - it.isize;
        items := it :: !items;
        size := !size + it.isize
      end
    done;
    List.rev !items
  end

let propose_batch t c =
  match seal_batch t c with
  | [] -> ()
  | items ->
      t.next_vid <- t.next_vid + 1;
      let v = Value.make ~vid:t.next_vid items in
      let inst = c.c_next_inst in
      c.c_next_inst <- inst + 1;
      propose_instance t c inst v

(* A consensus instance is triggered when a batch is full or the batch
   timeout fires (§3.5.2), and only while the window has room. *)
let rec drain t c =
  if c.c_phase1_ok && c.c_active && Simnet.is_alive c.c_proc then begin
    (* Re-propose values claimed during Phase 1 first. *)
    let claimed = Hashtbl.fold (fun i (_, v) acc -> (i, v) :: acc) c.c_claimed [] in
    Hashtbl.reset c.c_claimed;
    List.iter
      (fun (inst, v) ->
        if not (Hashtbl.mem c.c_insts inst) then propose_instance t c inst v;
        if inst >= c.c_next_inst then c.c_next_inst <- inst + 1)
      (List.sort compare claimed);
    let batch_ready () =
      (not (Queue.is_empty c.c_pending))
      && (t.cfg.batch_bytes <= 0 || c.c_pending_bytes >= t.cfg.batch_bytes)
    in
    while c.c_outstanding < t.cfg.window && batch_ready () do
      propose_batch t c
    done;
    if (not (Queue.is_empty c.c_pending)) && c.c_batch_timer = None then
      c.c_batch_timer <-
        Some
          (Simnet.after t.net t.cfg.batch_timeout (fun () ->
               c.c_batch_timer <- None;
               if
                 c.c_active && Simnet.is_alive c.c_proc && c.c_phase1_ok
                 && c.c_outstanding < t.cfg.window
               then propose_batch t c;
               drain t c))
  end

let coord_on_decided t c inst (info : inst_info) =
  if not info.i_decided then begin
    info.i_decided <- true;
    c.c_decided <- c.c_decided + 1;
    c.c_outstanding <- c.c_outstanding - 1;
    Hashtbl.replace c.c_decisions inst info.i_value;
    announce_decision t c inst info.i_value;
    ack_items t c info.i_value;
    drain t c
  end

let start_phase1 t c =
  c.c_rnd <- c.c_rnd + Array.length t.coords;
  c.c_phase1_ok <- false;
  c.c_p1b <- 0;
  send_to_acceptors t c ~size:hdr (P1a { rnd = c.c_rnd; coord = c.c_rank })

let coord_handler t c (m : Simnet.msg) =
  match m.payload with
  | Propose item ->
      if c.c_active then begin
        Queue.push item c.c_pending;
        c.c_pending_bytes <- c.c_pending_bytes + item.Value.isize;
        drain t c
      end
  | P1b { rnd; acc = _; votes } ->
      if rnd = c.c_rnd && not c.c_phase1_ok then begin
        List.iter
          (fun (inst, vrnd, vval) ->
            match Hashtbl.find_opt c.c_claimed inst with
            | Some (r, _) when r >= vrnd -> ()
            | _ -> Hashtbl.replace c.c_claimed inst (vrnd, vval))
          votes;
        c.c_p1b <- c.c_p1b + 1;
        if c.c_p1b >= majority t then begin
          c.c_phase1_ok <- true;
          drain t c
        end
      end
  | P2b { inst; rnd; vid = _ } ->
      if rnd = c.c_rnd then begin
        match Hashtbl.find_opt c.c_insts inst with
        | Some info when not info.i_decided ->
            info.i_votes <- info.i_votes + 1;
            if info.i_votes >= majority t then coord_on_decided t c inst info
        | _ -> ()
      end
  | RepairReq { inst; learner } -> begin
      match Hashtbl.find_opt c.c_decisions inst with
      | Some v when c.c_active ->
          Simnet.send t.net ~src:c.c_proc ~dst:t.lrns.(learner).l_proc ~size:(v.size + hdr)
            (Decision { inst; vid = v.vid; value = Some v })
      | _ -> ()
    end
  | Heartbeat { coord } ->
      if coord <> c.c_rank then c.c_last_hb <- Simnet.now t.net
  | NewCoord { coord } -> if coord <> c.c_rank then c.c_active <- false
  | _ -> ()

(* --- acceptor -------------------------------------------------------- *)

let acc_handler t a (m : Simnet.msg) =
  match m.payload with
  | P1a { rnd; coord } ->
      if rnd > a.a_rnd then begin
        a.a_rnd <- rnd;
        let votes = Hashtbl.fold (fun i (vr, vv) l -> (i, vr, vv) :: l) a.a_votes [] in
        let size = hdr + (List.length votes * 16) in
        Simnet.send t.net ~src:a.a_proc ~dst:t.coords.(coord).c_proc ~size
          (P1b { rnd; acc = a.a_idx; votes })
      end
  | P2a { inst; rnd; value } ->
      if rnd >= a.a_rnd then begin
        a.a_rnd <- rnd;
        Hashtbl.replace a.a_votes inst (rnd, value);
        let coord = ref None in
        Array.iter (fun c -> if c.c_rnd = rnd then coord := Some c) t.coords;
        let target =
          match !coord with Some c -> c | None -> t.coords.(0)
        in
        Simnet.send t.net ~src:a.a_proc ~dst:target.c_proc ~size:hdr
          (P2b { inst; rnd; vid = value.vid })
      end
  | _ -> ()

(* --- learner --------------------------------------------------------- *)

let rec lrn_advance t l =
  match Hashtbl.find_opt l.l_ready l.l_next with
  | Some v ->
      Hashtbl.remove l.l_ready l.l_next;
      let inst = l.l_next in
      l.l_next <- inst + 1;
      t.deliver ~learner:l.l_idx ~inst v;
      lrn_advance t l
  | None ->
      if (Hashtbl.length l.l_ready > 0 || Hashtbl.length l.l_wait > 0) && not l.l_repairing
      then begin
        l.l_repairing <- true;
        ignore
          (Simnet.after t.net t.cfg.repair_timeout (fun () ->
               l.l_repairing <- false;
               if Simnet.is_alive l.l_proc
                  && (Hashtbl.length l.l_ready > 0 || Hashtbl.length l.l_wait > 0)
               then begin
                 match active_coord t with
                 | Some c ->
                     Simnet.send t.net ~src:l.l_proc ~dst:c.c_proc ~size:hdr
                       (RepairReq { inst = l.l_next; learner = l.l_idx });
                     lrn_advance t l
                 | None -> ()
               end))
      end

let lrn_record t l inst (v : Value.t) =
  if inst >= l.l_next && not (Hashtbl.mem l.l_ready inst) then begin
    Hashtbl.replace l.l_ready inst v;
    lrn_advance t l
  end

let lrn_handler t l (m : Simnet.msg) =
  match m.payload with
  | P2a { inst = _; rnd = _; value } -> Hashtbl.replace l.l_vals value.vid value
  | Decision { inst; vid; value = Some v } ->
      ignore vid;
      lrn_record t l inst v
  | Decision { inst; vid; value = None } -> begin
      match Hashtbl.find_opt l.l_vals vid with
      | Some v -> lrn_record t l inst v
      | None ->
          Hashtbl.replace l.l_wait inst vid;
          lrn_advance t l
    end
  | _ -> ()

(* --- proposer -------------------------------------------------------- *)

let prop_handler p (m : Simnet.msg) =
  match m.payload with
  | Ack { uid } ->
      (match Hashtbl.find_opt p.p_unacked uid with
      | Some it -> p.p_unacked_bytes <- p.p_unacked_bytes - it.Value.isize
      | None -> ());
      Hashtbl.remove p.p_unacked uid;
      Hashtbl.remove p.p_last_sent uid
  | NewCoord { coord } -> p.p_coord <- coord
  | _ -> ()

let rec resubmit_loop t p =
  ignore
    (Simnet.after t.net t.cfg.resubmit_timeout (fun () ->
         if Simnet.is_alive p.p_proc then begin
           (match active_coord t with
           | Some c ->
               Hashtbl.iter
                 (fun uid (it : Value.item) ->
                   let last =
                     Option.value ~default:0.0 (Hashtbl.find_opt p.p_last_sent uid)
                   in
                   if Simnet.now t.net -. last > t.cfg.resubmit_timeout then begin
                     Hashtbl.replace p.p_last_sent uid (Simnet.now t.net);
                     Simnet.send t.net ~src:p.p_proc ~dst:c.c_proc ~size:(it.isize + hdr)
                       (Propose it)
                   end)
                 p.p_unacked
           | None -> ());
           resubmit_loop t p
         end))

(* --- standby takeover ------------------------------------------------ *)

let monitor_standby t c =
  let (_stop : unit -> unit) =
    Simnet.every t.net ~period:t.cfg.hb_period (fun () ->
         if Simnet.is_alive c.c_proc && not c.c_active then begin
           let silent = Simnet.now t.net -. c.c_last_hb > t.cfg.hb_timeout in
           let predecessors_dead =
             Array.for_all
               (fun c' -> c'.c_rank >= c.c_rank || not (Simnet.is_alive c'.c_proc))
               t.coords
           in
           if silent && predecessors_dead then begin
             c.c_active <- true;
             Array.iter
               (fun p ->
                 Simnet.send t.net ~src:c.c_proc ~dst:p.p_proc ~size:hdr
                   (NewCoord { coord = c.c_rank }))
               t.props;
             Array.iter
               (fun l ->
                 Simnet.send t.net ~src:c.c_proc ~dst:l.l_proc ~size:hdr
                   (NewCoord { coord = c.c_rank }))
               t.lrns;
             start_phase1 t c
           end
         end)
  in
  ()

let heartbeat_loop t =
  let (_stop : unit -> unit) =
    Simnet.every t.net ~period:t.cfg.hb_period (fun () ->
         match active_coord t with
         | Some c ->
             Array.iter
               (fun c' ->
                 if c' != c && Simnet.is_alive c'.c_proc then
                   Simnet.send t.net ~src:c.c_proc ~dst:c'.c_proc ~size:hdr
                     (Heartbeat { coord = c.c_rank }))
               t.coords
         | None -> ())
  in
  ()

(* --- construction ---------------------------------------------------- *)

let create net cfg ~n_acceptors ~n_standby ~n_proposers ~n_learners ~deliver =
  let mk_proc role i =
    let node = Simnet.add_node net (Printf.sprintf "%s%d" role i) in
    Simnet.add_proc net node (Printf.sprintf "%s%d" role i)
  in
  let coords =
    Array.init (1 + n_standby) (fun i ->
        { c_proc = mk_proc "coord" i;
          c_rank = i;
          c_active = i = 0;
          c_rnd = i;
          c_phase1_ok = false;
          c_p1b = 0;
          c_claimed = Hashtbl.create 64;
          c_next_inst = 0;
          c_outstanding = 0;
          c_pending = Queue.create ();
          c_pending_bytes = 0;
          c_batch = [];
          c_batch_size = 0;
          c_batch_timer = None;
          c_insts = Hashtbl.create 1024;
          c_decisions = Hashtbl.create 1024;
          c_last_hb = 0.0;
          c_decided = 0 })
  in
  let accs =
    Array.init n_acceptors (fun i ->
        { a_proc = mk_proc "acc" i; a_idx = i; a_rnd = 0; a_votes = Hashtbl.create 1024 })
  in
  let lrns =
    Array.init n_learners (fun i ->
        { l_proc = mk_proc "lrn" i;
          l_idx = i;
          l_next = 0;
          l_ready = Hashtbl.create 1024;
          l_vals = Hashtbl.create 1024;
          l_wait = Hashtbl.create 64;
          l_repairing = false })
  in
  let props =
    Array.init n_proposers (fun i ->
        { p_proc = mk_proc "prop" i;
          p_idx = i;
          p_coord = 0;
          p_unacked = Hashtbl.create 64;
          p_unacked_bytes = 0;
          p_last_sent = Hashtbl.create 64;
          p_buffer = 2 * 1024 * 1024 })
  in
  let g_all = Simnet.new_group net "paxos-all" in
  Array.iter (fun c -> Simnet.join g_all c.c_proc) coords;
  Array.iter (fun a -> Simnet.join g_all a.a_proc) accs;
  Array.iter (fun l -> Simnet.join g_all l.l_proc) lrns;
  let t =
    { net; cfg; coords; accs; lrns; props; g_all; deliver;
      next_uid = 0; next_vid = 0 }
  in
  Array.iter (fun c -> Simnet.set_handler c.c_proc (coord_handler t c)) coords;
  Array.iter (fun a -> Simnet.set_handler a.a_proc (acc_handler t a)) accs;
  Array.iter (fun l -> Simnet.set_handler l.l_proc (lrn_handler t l)) lrns;
  Array.iter
    (fun p ->
      Simnet.set_handler p.p_proc (prop_handler p);
      resubmit_loop t p)
    props;
  Array.iter (fun c -> if not c.c_active then monitor_standby t c) coords;
  heartbeat_loop t;
  start_phase1 t coords.(0);
  t

let submit t ~proposer ~size app =
  let p = t.props.(proposer) in
  if p.p_unacked_bytes + size > p.p_buffer then -1
  else begin
    t.next_uid <- t.next_uid + 1;
    (* The uid encodes the originating proposer so the coordinator can
       route acknowledgments without extra fields (see Value.make_uid). *)
    let uid = Value.make_uid ~seq:t.next_uid ~origin:proposer in
    let item = { Value.uid; isize = size; app; born = Simnet.now t.net } in
    Hashtbl.replace p.p_unacked uid item;
    p.p_unacked_bytes <- p.p_unacked_bytes + size;
    Hashtbl.replace p.p_last_sent uid (Simnet.now t.net);
    (match active_coord t with
    | Some c -> Simnet.send t.net ~src:p.p_proc ~dst:c.c_proc ~size:(size + hdr) (Propose item)
    | None -> ());
    uid
  end

let coordinator t =
  match active_coord t with Some c -> c.c_proc | None -> t.coords.(0).c_proc

let acceptor t i = t.accs.(i).a_proc

let kill_coordinator t =
  match active_coord t with Some c -> Simnet.kill t.net c.c_proc | None -> ()

let kill_acceptor t i = Simnet.kill t.net t.accs.(i).a_proc

let decided t =
  Array.fold_left (fun acc c -> acc + c.c_decided) 0 t.coords
