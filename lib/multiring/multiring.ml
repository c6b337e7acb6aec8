type config = {
  ring : Ringpaxos.Mring.config;
  n_rings : int;
  n_groups : int;  (* 0 = one group per ring *)
  lambda : float;
  delta : float;
  m : int;
  buffer_items : int;
}

let default_config =
  { ring = Ringpaxos.Mring.default_config;
    n_rings = 2;
    n_groups = 0;
    lambda = 9000.0;
    delta = 1.0e-3;
    m = 1;
    buffer_items = 50_000 }

let groups_of cfg = if cfg.n_groups <= 0 then cfg.n_rings else cfg.n_groups

type Simnet.payload += Skip of { count : int }

(* Application payloads are tagged with their group so several groups can
   share one ring (the gamma-groups-to-delta-rings mapping of §5.2.4). *)
type Simnet.payload += Grouped of { group : int; app : Simnet.payload }

type lrn = {
  ml_idx : int;
  ml_subs : int array;  (* subscribed groups, ascending *)
  mutable ml_foreign : int;  (* items received for unsubscribed groups *)
  ml_queues : Paxos.Value.item Queue.t array;  (* one per subscribed group *)
  ml_credit : int array;  (* skip slots banked per subscribed group *)
  ml_recv : int array;  (* per group of the system *)
  mutable ml_cur : int;  (* index into ml_subs *)
  mutable ml_taken : int;  (* slots consumed from the current group *)
  mutable ml_buffered : int;
  mutable ml_halted : bool;
  mutable ml_delivered : int;
}

type t = {
  net : Simnet.t;
  cfg : config;
  mutable rings : Ringpaxos.Mring.t array;
  lrns : lrn array;
  deliver : learner:int -> group:int -> Paxos.Value.item -> Simnet.payload -> unit;
  submitted : int array;  (* per group, messages in the current delta window *)
  skips : int array;  (* per group, total skip slots proposed *)
  deficits : int array;
      (* per group, skip slots owed but not yet submitted (the controller's
         proposal was rejected, e.g. a full buffer while its ring
         reconfigures) — carried into the next delta window so the merge
         never silently loses slots *)
  ring_learners : int array array;  (* ring -> multiring learner ids *)
}

let ring_of_group t g = g mod Array.length t.rings

(* Index of [group] in a learner's subscriptions, or -1. *)
let rec sub_slot subs group i =
  if i >= Array.length subs then -1
  else if subs.(i) = group then i
  else sub_slot subs group (i + 1)

let advance_if_done t l =
  if l.ml_taken >= t.cfg.m then begin
    l.ml_taken <- 0;
    l.ml_cur <- (l.ml_cur + 1) mod Array.length l.ml_subs
  end

(* Queued items keep their [Grouped] wrapper: stripping it here rather
   than on arrival saves a record copy per item. *)
let unwrap (it : Paxos.Value.item) =
  match it.app with Grouped { app; _ } -> app | app -> app

(* Deterministic merge: consume [m] message slots per subscribed group, in
   ascending group order.  A real message fills one slot and is delivered; a
   skip message banks [count] slots of credit for its group, consumed round
   by round so idle groups never stall the others (§5.2.1). *)
let rec merge t l =
  if not l.ml_halted then begin
    let cur = l.ml_cur in
    if l.ml_credit.(cur) > 0 then begin
      let used = Stdlib.min l.ml_credit.(cur) (t.cfg.m - l.ml_taken) in
      l.ml_credit.(cur) <- l.ml_credit.(cur) - used;
      l.ml_taken <- l.ml_taken + used;
      advance_if_done t l;
      merge t l
    end
    else begin
      let q = l.ml_queues.(cur) in
      (* An empty queue waits for traffic or a skip on this group. *)
      if not (Queue.is_empty q) then begin
        let it = Queue.take q in
        l.ml_buffered <- l.ml_buffered - 1;
        (match unwrap it with
        | Skip { count } -> l.ml_credit.(cur) <- l.ml_credit.(cur) + count
        | app ->
            l.ml_delivered <- l.ml_delivered + 1;
            l.ml_taken <- l.ml_taken + 1;
            t.deliver ~learner:l.ml_idx ~group:l.ml_subs.(cur) it app);
        advance_if_done t l;
        merge t l
      end
    end
  end

let rec receive t l = function
  | [] -> ()
  | (it : Paxos.Value.item) :: rest ->
      let group = match it.app with Grouped { group; _ } -> group | _ -> -1 in
      let slot = if group >= 0 then sub_slot l.ml_subs group 0 else -1 in
      if slot >= 0 then begin
        l.ml_recv.(group) <- l.ml_recv.(group) + 1;
        Queue.push it l.ml_queues.(slot);
        l.ml_buffered <- l.ml_buffered + 1;
        if l.ml_buffered > t.cfg.buffer_items then l.ml_halted <- true
      end
      else
        (* Traffic of a co-hosted group this learner does not subscribe to:
           received, paid for, and discarded (§5.2.4's drawback). *)
        l.ml_foreign <- l.ml_foreign + 1;
      receive t l rest

let on_ring_deliver t l (v : Paxos.Value.t) =
  receive t l v.items;
  merge t l

(* The skip controller of one group: every delta, top the group's traffic up
   to lambda with a single batched skip message (§5.2.2).  A rejected skip
   proposal is not forgotten: its slots accumulate in the group's deficit
   and ride the next window, so a ring that briefly refuses proposals
   (reconfiguration handoff, full buffer) cannot starve the deterministic
   merge of the groups it carries. *)
let controller_loop t group =
  let (_stop : unit -> unit) =
    Simnet.every t.net ~period:t.cfg.delta (fun () ->
        let expected = int_of_float (t.cfg.lambda *. t.cfg.delta) in
        let missing = expected - t.submitted.(group) + t.deficits.(group) in
        t.submitted.(group) <- 0;
        t.deficits.(group) <- 0;
        if missing > 0 && t.cfg.lambda > 0.0 then begin
          let uid =
            Ringpaxos.Mring.submit
              t.rings.(ring_of_group t group)
              ~proposer:0 (* the controller's dedicated proposer *)
              ~size:64
              (Grouped { group; app = Skip { count = missing } })
          in
          if uid >= 0 then t.skips.(group) <- t.skips.(group) + missing
          else
            (* Carry the debt, bounded to a second's worth of slots so a
               long outage cannot turn into an unbounded skip burst. *)
            t.deficits.(group) <-
              Stdlib.min missing (int_of_float (Stdlib.max t.cfg.lambda 1.0))
        end)
  in
  ()

let create ?learner_nodes net cfg ~n_learners ~subs ~proposers_per_ring ~deliver =
  let n_groups = groups_of cfg in
  let lrn_nodes =
    match learner_nodes with
    | Some nodes -> nodes
    | None -> Array.init n_learners (fun i -> Simnet.add_node net (Printf.sprintf "mrl%d" i))
  in
  let lrns =
    Array.init n_learners (fun i ->
        let groups = List.sort_uniq compare (subs i) in
        let subs = Array.of_list groups in
        { ml_idx = i;
          ml_subs = subs;
          ml_foreign = 0;
          ml_queues = Array.map (fun _ -> Queue.create ()) subs;
          ml_credit = Array.map (fun _ -> 0) subs;
          ml_recv = Array.make n_groups 0;
          ml_cur = 0;
          ml_taken = 0;
          ml_buffered = 0;
          ml_halted = false;
          ml_delivered = 0 })
  in
  (* A learner joins ring r when any of its groups maps to r. *)
  let ring_learners =
    Array.init cfg.n_rings (fun r ->
        Array.of_list
          (List.filter_map
             (fun l ->
               if Array.exists (fun g -> g mod cfg.n_rings = r) lrns.(l).ml_subs then Some l
               else None)
             (List.init n_learners Fun.id)))
  in
  let t =
    { net;
      cfg;
      rings = [||];
      lrns;
      deliver;
      submitted = Array.make n_groups 0;
      skips = Array.make n_groups 0;
      deficits = Array.make n_groups 0;
      ring_learners }
  in
  let rings =
    Array.init cfg.n_rings (fun r ->
        let members = ring_learners.(r) in
        let nodes = Array.map (fun l -> lrn_nodes.(l)) members in
        Ringpaxos.Mring.create ~learner_nodes:nodes net cfg.ring
          ~n_proposers:(proposers_per_ring + 1) (* +1 for the skip controller *)
          ~n_learners:(Array.length members)
          ~learner_parts:(fun _ -> [ 0 ])
          ~deliver:(fun ~learner ~inst:_ v ->
            match v with
            | Some v -> on_ring_deliver t t.lrns.(members.(learner)) v
            | None -> ()))
  in
  t.rings <- rings;
  for g = 0 to n_groups - 1 do
    controller_loop t g
  done;
  t

let multicast t ~group ~proposer ~size app =
  (* Proposer 0 of every ring belongs to the skip controller. *)
  let uid =
    Ringpaxos.Mring.submit
      t.rings.(ring_of_group t group)
      ~proposer:(proposer + 1) ~size
      (Grouped { group; app })
  in
  (* Only accepted proposals count against the window: a rejected one will
     never be ordered, and counting it would make the controller under-skip
     and stall the merge at every subscriber of this group. *)
  if uid >= 0 then t.submitted.(group) <- t.submitted.(group) + 1;
  uid

let ring t i = t.rings.(i)

let index_in arr x =
  let rec go i = if arr.(i) = x then i else go (i + 1) in
  go 0

let learner_proc t l =
  let r = ring_of_group t t.lrns.(l).ml_subs.(0) in
  Ringpaxos.Mring.learner_proc t.rings.(r) (index_in t.ring_learners.(r) l)

let proposer_proc t ~group ~proposer =
  Ringpaxos.Mring.proposer_proc t.rings.(ring_of_group t group) (proposer + 1)
let n_rings t = Array.length t.rings
let learner_buffer t i = t.lrns.(i).ml_buffered
let learner_halted t i = t.lrns.(i).ml_halted

let learner_delivered t i = t.lrns.(i).ml_delivered

let received t ~learner ~group = t.lrns.(learner).ml_recv.(group)

let kill_ring_coordinator t r = Ringpaxos.Mring.kill_coordinator t.rings.(r)

(* Per-ring dynamic membership: a reconfiguration of one ring is invisible
   to the merge — the skip controllers of the groups it carries keep
   topping traffic up to lambda (with the deficit carrying over any window
   the handoff refuses), so subscribers merging this ring with others
   never stall or skew. *)
let reconfigure_ring t r ~ring = Ringpaxos.Mring.reconfigure t.rings.(r) ~ring ()
let ring_epoch t r = Ringpaxos.Mring.epoch t.rings.(r)

let skips_proposed t g = t.skips.(g)

let foreign_items t l = t.lrns.(l).ml_foreign
