(* M-Ring's learner: in-order delivery, gap repair, flow-control
   reports, version reports and speculative delivery. *)

open Mring_state

(* Preferential acceptor: spread learners across the ring. *)
let pref_acceptor t l =
  match ring_pick t l.l_idx ~skip:(-1) with None -> coord_opt t | a -> a

(* The learner's buffer pressure is its unprocessed decisions, [incoming]
   (the instance being released, if any) and its decided instances still
   waiting on repairs (§3.3.6). *)
let lrn_fc_check t l ~incoming =
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
  Od.request_repairs l.l_repair l.l_od t.net ~timeout:retrans_timeout
    ~cooldown:repair_cooldown
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

(* One [Od.pump] step: release a decided instance once its value is here,
   or at once if it carries nothing for this learner's partitions; [false]
   blocks the pump until the lost value comes from the preferential acceptor. *)
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
   their order is decided (Ch. 4); the replica layer rolls back mismatches. *)
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

(* Record [d], a [Decision] or a [Retrans], as [inst]'s decision; [false]
   if the learner already knew it. *)
let lrn_offer t l inst (d : Simnet.payload) =
  Od.note_max l.l_od inst;
  Od.offer l.l_od ~inst d
  && begin
       (match Simnet.tracer t.net with
       | Some tr ->
           Trace.abegin tr ~pid:(Simnet.pid l.l_proc) ~cat:"ordering" ~name:"deliver-wait"
             ~id:((inst * 256) + l.l_idx) ~ts:(Simnet.now t.net)
       | None -> ());
       true
     end

let lrn_on_decision t l inst d =
  if lrn_offer t l inst d then lrn_drain t l
  else if Od.backlog l.l_od > 0 then
    (* A duplicate can still widen the gap through [note_max] (another
       partition's decision re-delivered after repair went quiescent), and
       the drain above did not run: restart repairs here. *)
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

let lrn_handler t l (m : Simnet.msg) =
  match m.payload with
  | P2a { inst; rnd = _; value; parts = _ } -> lrn_on_p2a t l inst value
  | Decision { inst; _ } -> lrn_on_decision t l inst m.payload
  | Retrans { inst; value; parts = _ } ->
      (* A repair response supplies both the decision and the value. *)
      set_val l value;
      ignore (lrn_offer t l inst m.payload);
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
