(* Tests for the shared protocol runtime components (lib/protocol):
   batching edge cases and failure-detector suspicion timing. *)

type Simnet.payload += Blob

let fresh () =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create 3) in
  (engine, net)

let item ?(uid = 0) isize = { Paxos.Value.uid; isize; app = Blob; born = 0.0 }

let sizes items = List.map (fun (it : Paxos.Value.item) -> it.isize) items

(* --- Batcher -------------------------------------------------------------- *)

let test_oversized_item_seals_alone () =
  let b = Protocol.Batcher.create ~batch_bytes:1000 () in
  ignore (Protocol.Batcher.enqueue b ~key:() (item ~uid:1 300));
  ignore (Protocol.Batcher.enqueue b ~key:() (item ~uid:2 5000));
  (* 5300 pending bytes exceed the threshold, so the key is ready... *)
  Alcotest.(check bool) "ready" true (Protocol.Batcher.ready b <> None);
  (* ...but the first seal stops before the oversized item. *)
  Alcotest.(check (list int)) "first batch" [ 300 ] (sizes (Protocol.Batcher.seal b ()));
  (* The oversized item does not stall: it seals alone. *)
  Alcotest.(check (list int)) "oversized alone" [ 5000 ] (sizes (Protocol.Batcher.seal b ()));
  Alcotest.(check bool) "drained" true (Protocol.Batcher.is_empty b)

let test_timeout_flushes_partial_batch () =
  let engine, net = fresh () in
  let b = Protocol.Batcher.create ~batch_bytes:100_000 () in
  ignore (Protocol.Batcher.enqueue b ~key:() (item 128));
  let flushed = ref [] in
  let fired_at = ref 0.0 in
  Protocol.Batcher.arm_timeout b net ~timeout:0.01 (fun () ->
      fired_at := Sim.Engine.now engine;
      flushed := Protocol.Batcher.seal b ());
  Alcotest.(check bool) "timer armed" true (Protocol.Batcher.timer_armed b);
  (* Arming again while a timer is pending is a no-op. *)
  Protocol.Batcher.arm_timeout b net ~timeout:0.01 (fun () -> Alcotest.fail "double arm");
  Sim.Engine.run engine ~until:1.0;
  Alcotest.(check (list int)) "sub-threshold batch flushed" [ 128 ] (sizes !flushed);
  Alcotest.(check bool) "fired at the timeout, not later" true
    (!fired_at >= 0.01 && !fired_at < 0.02);
  Alcotest.(check bool) "timer disarmed after firing" false (Protocol.Batcher.timer_armed b)

let test_timeout_noop_when_empty () =
  let engine, net = fresh () in
  let b = Protocol.Batcher.create ~batch_bytes:100_000 () in
  Protocol.Batcher.arm_timeout b net ~timeout:0.01 (fun () ->
      Alcotest.fail "timer armed with nothing pending");
  Alcotest.(check bool) "not armed" false (Protocol.Batcher.timer_armed b);
  Sim.Engine.run engine ~until:1.0

let test_zero_batch_bytes_disables_batching () =
  let b = Protocol.Batcher.create ~batch_bytes:0 () in
  ignore (Protocol.Batcher.enqueue b ~key:() (item ~uid:1 100));
  ignore (Protocol.Batcher.enqueue b ~key:() (item ~uid:2 100));
  ignore (Protocol.Batcher.enqueue b ~key:() (item ~uid:3 100));
  (* Every enqueue leaves the key ready, and every seal is a single item. *)
  for i = 1 to 3 do
    Alcotest.(check bool) (Printf.sprintf "ready %d" i) true (Protocol.Batcher.ready b <> None);
    Alcotest.(check int) (Printf.sprintf "singleton %d" i) 1
      (List.length (Protocol.Batcher.seal b ()))
  done;
  Alcotest.(check bool) "drained" true (Protocol.Batcher.is_empty b)

let test_buffer_bound_drops () =
  let b = Protocol.Batcher.create ~buffer_bytes:1000 ~batch_bytes:100_000 () in
  Alcotest.(check bool) "fits" true (Protocol.Batcher.enqueue b ~key:() (item 900));
  Alcotest.(check bool) "overflow rejected" false (Protocol.Batcher.enqueue b ~key:() (item 200));
  Alcotest.(check int) "drop counted" 1 (Protocol.Batcher.drops b);
  Alcotest.(check int) "accepted bytes kept" 900 (Protocol.Batcher.pending_bytes b)

let test_clear_disarms_pending_timeout () =
  let engine, net = fresh () in
  let b = Protocol.Batcher.create ~batch_bytes:100_000 () in
  ignore (Protocol.Batcher.enqueue b ~key:() (item 128));
  Protocol.Batcher.arm_timeout b net ~timeout:0.01 (fun () ->
      Alcotest.fail "timer armed before the clear fired");
  Protocol.Batcher.clear b;
  (* The pending timer must neither fire its stale callback nor block a
     fresh timer from arming (a crashed-and-cleared coordinator would
     otherwise never flush partial batches again). *)
  Alcotest.(check bool) "disarmed by clear" false (Protocol.Batcher.timer_armed b);
  ignore (Protocol.Batcher.enqueue b ~key:() (item 64));
  let flushed = ref [] in
  Protocol.Batcher.arm_timeout b net ~timeout:0.05 (fun () ->
      flushed := Protocol.Batcher.seal b ());
  Sim.Engine.run engine ~until:1.0;
  Alcotest.(check (list int)) "fresh timer flushes the new item" [ 64 ] (sizes !flushed)

(* The coordinator asks [ready] on every admission: an under-full batcher
   (total pending below one packet, so no key can be full) answers without
   walking its keys, and allocates nothing. *)
let test_ready_underfull_allocates_nothing () =
  let b = Protocol.Batcher.create ~batch_bytes:8192 () in
  List.iteri
    (fun i key -> ignore (Protocol.Batcher.enqueue b ~key (item ~uid:i 1000)))
    [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 2 ] ];
  Alcotest.(check bool) "under-full: not ready" true (Protocol.Batcher.ready b = None);
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Protocol.Batcher.ready b))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check (float 0.0)) "ready allocates nothing" 0.0 per_call;
  (* Past one packet in total but with no single key full: still not ready. *)
  List.iteri
    (fun i key -> ignore (Protocol.Batcher.enqueue b ~key (item ~uid:(10 + i) 1000)))
    [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 2 ]; [ 3 ] ];
  Alcotest.(check bool) "no key full: not ready" true (Protocol.Batcher.ready b = None);
  ignore (Protocol.Batcher.enqueue b ~key:[ 2 ] (item ~uid:20 7000));
  Alcotest.(check (option (list int))) "full key is ready" (Some [ 2 ])
    (Protocol.Batcher.ready b)

(* Sealing conses the batch in order and allocates nothing else: exactly
   one 3-word list cell per sealed item, with no reversed copy, no loop
   refs and no option from the queue lookup. *)
let test_seal_allocates_only_the_batch () =
  let b = Protocol.Batcher.create ~batch_bytes:8192 () in
  let n = 8000 in
  for i = 1 to n do
    ignore (Protocol.Batcher.enqueue b ~key:[ 0 ] (item ~uid:i 1024))
  done;
  let sealed = ref 0 in
  let w0 = Gc.minor_words () in
  while not (Protocol.Batcher.is_empty b) do
    sealed := !sealed + List.length (Sys.opaque_identity (Protocol.Batcher.seal b [ 0 ]))
  done;
  let per_item = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every item sealed" n !sealed;
  Alcotest.(check (float 0.0)) "3 words per sealed item" 3.0 per_item

(* --- Counters -------------------------------------------------------------- *)

(* Protocols bump counters on hot paths (e.g. once per decision): an
   existing counter is found with one lookup and no option. *)
let test_counter_incr_allocates_nothing () =
  let c = Protocol.Counters.create () in
  Protocol.Counters.incr c "wait_durable";
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Protocol.Counters.incr c "wait_durable"
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "counted" (n + 1) (Protocol.Counters.get c "wait_durable");
  Alcotest.(check (float 0.0)) "incr allocates nothing" 0.0 per_call

(* --- Retry ----------------------------------------------------------------- *)

let test_iter_due_ack_during_iteration () =
  (* An item acknowledged from inside an [iter_due] callback must not
     fire later in the same pass — retransmitting acknowledged work
     re-proposes values that were already decided.  This is exactly what
     a Decision processed during a retransmission does: it acks many
     uids while the tracker is still being walked.  The hazard only
     bites when the acked key shares a bucket chain with the firing key,
     so exercise every adjacent pair of the iteration order. *)
  let n = 512 in
  let build () =
    let tr : (int, unit) Protocol.Retry.tracker = Protocol.Retry.tracker () in
    for k = 0 to n - 1 do
      Protocol.Retry.watch tr ~now_tk:0 k ()
    done;
    tr
  in
  let order = ref [] in
  Protocol.Retry.iter (build ()) (fun k () -> order := k :: !order);
  let order = Array.of_list (List.rev !order) in
  Alcotest.(check int) "snapshot sees every key" n (Array.length order);
  for i = 0 to n - 2 do
    let a = order.(i) and b = order.(i + 1) in
    let tr = build () in
    let acked = ref false in
    Protocol.Retry.iter_due tr ~now_tk:(Sim.Engine.ticks_of_time 10.0) ~older_than:1.0 (fun k () ->
        if k = b && !acked then
          Alcotest.failf "key %d fired after being acked (while visiting %d)" b a;
        if k = a then begin
          ignore (Protocol.Retry.ack tr b);
          acked := true
        end)
  done;
  (* Items that do fire are restamped, so they back off a full period. *)
  let tr : (int, unit) Protocol.Retry.tracker = Protocol.Retry.tracker () in
  Protocol.Retry.watch tr ~now_tk:0 0 ();
  Protocol.Retry.iter_due tr ~now_tk:(Sim.Engine.ticks_of_time 10.0) ~older_than:1.0 (fun _ () -> ());
  Protocol.Retry.iter_due tr ~now_tk:(Sim.Engine.ticks_of_time 10.5) ~older_than:1.0 (fun _ () ->
      Alcotest.fail "restamped item fired again within the back-off")

(* --- Ordered delivery ------------------------------------------------------ *)

let test_drop_below_frees_speculation_marks () =
  let od : int Protocol.Ordered_delivery.t = Protocol.Ordered_delivery.create () in
  (* A learner partitioned away from the decision stream speculates on
     instances it never delivers; the GC floor (driven by the other
     learners) outruns [next].  Marks below the floor must be freed. *)
  for round = 0 to 63 do
    let base = round * 1024 in
    for i = 0 to 1023 do
      Protocol.Ordered_delivery.speculate od ~inst:(base + i) (fun () -> ())
    done;
    Protocol.Ordered_delivery.drop_below od (base + 1024)
  done;
  let words = Obj.reachable_words (Obj.repr od) in
  Alcotest.(check bool)
    (Printf.sprintf "speculation marks freed (reachable = %d words)" words)
    true (words < 20_000)

let test_drain_sink_does_not_recurse_per_item () =
  let _engine, net = fresh () in
  let node = Simnet.add_node net "sink-node" in
  let proc = Simnet.add_proc net node "sink-proc" in
  let s : (int, unit) Protocol.Ordered_delivery.sink = Protocol.Ordered_delivery.sink () in
  let n = 100_000 in
  for i = 0 to n - 1 do
    Protocol.Ordered_delivery.sink_push s i ()
  done;
  let depth = ref 0 and max_depth = ref 0 and delivered = ref 0 in
  let rec deliver _ () =
    incr depth;
    if !depth > !max_depth then max_depth := !depth;
    incr delivered;
    (* Delivery re-enters the drain, as learner pumps do; with one stack
       frame per queued item this overflows long before 100k. *)
    Protocol.Ordered_delivery.drain_sink s net proc ~cost:(fun () -> 0.0) deliver;
    decr depth
  in
  Protocol.Ordered_delivery.drain_sink s net proc ~cost:(fun () -> 0.0) deliver;
  Alcotest.(check int) "all items delivered" n !delivered;
  Alcotest.(check int) "sink drained" 0 (Protocol.Ordered_delivery.sink_length s);
  Alcotest.(check bool)
    (Printf.sprintf "bounded nesting (max depth = %d)" !max_depth)
    true (!max_depth <= 2)

(* A learner pumps once per decision: releasing an in-order entry through a
   callback built beforehand allocates nothing. *)
let test_pump_allocates_nothing () =
  let od : int Protocol.Ordered_delivery.t = Protocol.Ordered_delivery.create () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    ignore (Protocol.Ordered_delivery.offer od ~inst:i i)
  done;
  let sum = ref 0 in
  let release _ v =
    sum := !sum + v;
    true
  in
  let w0 = Gc.minor_words () in
  Protocol.Ordered_delivery.pump od release;
  let per_entry = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every entry delivered" n (Protocol.Ordered_delivery.next od);
  Alcotest.(check (float 0.0)) "pump allocates nothing per entry" 0.0 per_entry

(* A learner offers each released instance to its sink.  At zero cost an
   entry reaching an idle sink is delivered without being queued, and a
   queued backlog drains, both without allocating.  With a processing
   cost, offers made while the CPU is busy queue behind it, in order. *)
let test_sink_offer () =
  let engine, net = fresh () in
  let proc = Simnet.add_proc net (Simnet.add_node net "sink-node") "sink-proc" in
  let s : (int, unit) Protocol.Ordered_delivery.sink = Protocol.Ordered_delivery.sink () in
  let sum = ref 0 in
  let free () = 0.0 and add i () = sum := !sum + i in
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    Protocol.Ordered_delivery.sink_offer s net proc ~cost:free add i ()
  done;
  let offered = Gc.minor_words () -. w0 in
  for i = 1 to n do
    Protocol.Ordered_delivery.sink_push s i ()
  done;
  let w0 = Gc.minor_words () in
  Protocol.Ordered_delivery.drain_sink s net proc ~cost:free add;
  let drained = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every entry delivered" (n * (n + 1)) !sum;
  Alcotest.(check (float 0.0)) "an offer to an idle sink allocates nothing" 0.0
    (offered /. float_of_int n);
  Alcotest.(check (float 0.0)) "a drained backlog allocates nothing" 0.0
    (drained /. float_of_int n);
  let got = ref [] in
  let slow () = 1.0e-3 and record i () = got := i :: !got in
  for i = 1 to 5 do
    Protocol.Ordered_delivery.sink_offer s net proc ~cost:slow record i ()
  done;
  Alcotest.(check (list int)) "nothing delivered before the CPU time" [] !got;
  Alcotest.(check int) "offers queue behind the busy CPU" 4
    (Protocol.Ordered_delivery.sink_length s);
  Sim.Engine.run engine ~until:1.0;
  Alcotest.(check (list int)) "delivered in order" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_repair_rearms_through_transient_death () =
  (* The repair timer firing while the learner is transiently dead (e.g.
     mid crash/recover) used to end the cycle forever: the gap was never
     requested again even though the backlog persisted. *)
  let _engine, net = fresh () in
  let od : unit Protocol.Ordered_delivery.t = Protocol.Ordered_delivery.create () in
  let r = Protocol.Ordered_delivery.repairer () in
  let alive = ref false in
  let sent = ref 0 in
  Protocol.Ordered_delivery.note_max od 5 (* instances 0..5 missing *);
  Protocol.Ordered_delivery.request_repairs r od net ~timeout:0.01 ~cooldown:0.04
    ~alive:(fun () -> !alive)
    ~complete:(fun _ _ -> true)
    ~send:(fun insts ->
      incr sent;
      Alcotest.(check bool) "asks for concrete instances" true (insts <> []));
  (* Dead at the first firing (t=0.01), back before the second. *)
  ignore (Simnet.after net 0.02 (fun () -> alive := true));
  Sim.Engine.run (Simnet.engine net) ~until:0.5;
  Alcotest.(check bool) "repairs resume after the transient death" true (!sent > 0)

let test_fast_forward_starts_at_boundary () =
  (* A learner activated mid-run (a staged learner joining at a
     reconfiguration boundary) fast-forwards to the activation instance:
     everything below is forgotten — never delivered, never treated as a
     gap — and delivery starts exactly at the boundary. *)
  let od : int Protocol.Ordered_delivery.t = Protocol.Ordered_delivery.create () in
  Protocol.Ordered_delivery.note_max od 99 (* pre-activation history *);
  Protocol.Ordered_delivery.fast_forward od 100;
  Alcotest.(check int) "next is the boundary" 100 (Protocol.Ordered_delivery.next od);
  (* Pre-boundary decisions arriving late are ignored... *)
  Alcotest.(check bool) "stale offer rejected" false
    (Protocol.Ordered_delivery.offer od ~inst:42 42);
  (* ...and open no gaps: nothing below the boundary is missing. *)
  Alcotest.(check (list int)) "no pre-boundary gaps" []
    (Protocol.Ordered_delivery.missing od ~limit:10 ~complete:(fun _ _ -> true) ());
  let got = ref [] in
  ignore (Protocol.Ordered_delivery.offer od ~inst:100 100);
  ignore (Protocol.Ordered_delivery.offer od ~inst:101 101);
  Protocol.Ordered_delivery.pump od (fun inst v ->
      got := (inst, v) :: !got;
      true);
  Alcotest.(check (list (pair int int)))
    "delivery starts at the boundary"
    [ (100, 100); (101, 101) ]
    (List.rev !got)

let test_repair_retargets_when_source_leaves () =
  (* The repair cycle asks one source per attempt; when that source leaves
     the membership mid-cycle (a retired acceptor), its reply never comes
     and the cycle must keep re-asking so the caller's rotation reaches a
     live source.  The first attempts here go to the departed source and
     vanish; the cycle may not wind down until a later attempt is served. *)
  let _engine, net = fresh () in
  let od : int Protocol.Ordered_delivery.t = Protocol.Ordered_delivery.create () in
  let r = Protocol.Ordered_delivery.repairer () in
  let attempt = ref 0 in
  let unanswered = ref 0 in
  Protocol.Ordered_delivery.note_max od 3 (* instances 0..3 missing *);
  Protocol.Ordered_delivery.request_repairs r od net ~timeout:0.01 ~cooldown:0.02
    ~alive:(fun () -> true)
    ~complete:(fun _ _ -> true)
    ~send:(fun insts ->
      incr attempt;
      (* Rotation over two sources, like the learners' preferential
         acceptors; source 0 has left the ring and never answers. *)
      if !attempt mod 2 = 1 then incr unanswered
      else begin
        List.iter (fun i -> ignore (Protocol.Ordered_delivery.offer od ~inst:i i)) insts;
        Protocol.Ordered_delivery.pump od (fun _ _ -> true)
      end);
  Sim.Engine.run (Simnet.engine net) ~until:1.0;
  Alcotest.(check bool) "first target silently departed" true (!unanswered > 0);
  Alcotest.(check int) "gap healed via the live source" 4
    (Protocol.Ordered_delivery.next od);
  Alcotest.(check bool) "cycle quiescent once healed" false
    (Protocol.Ordered_delivery.repairing r)

let test_repair_gap_after_quiescence () =
  (* A gap heals, the cycle winds down; a second gap opening later must be
     repairable by re-invoking [request_repairs] (the caller contract). *)
  let _engine, net = fresh () in
  let engine = Simnet.engine net in
  let od : unit Protocol.Ordered_delivery.t = Protocol.Ordered_delivery.create () in
  let r = Protocol.Ordered_delivery.repairer () in
  let sent = ref 0 in
  let start () =
    Protocol.Ordered_delivery.request_repairs r od net ~timeout:0.01 ~cooldown:0.02
      ~alive:(fun () -> true)
      ~complete:(fun _ _ -> true)
      ~send:(fun _ -> incr sent)
  in
  Protocol.Ordered_delivery.note_max od 1;
  start ();
  Sim.Engine.run engine ~until:0.015;
  Alcotest.(check bool) "first gap requested" true (!sent > 0);
  (* Heal the gap; the cycle must reach quiescence... *)
  ignore (Protocol.Ordered_delivery.offer od ~inst:0 ());
  ignore (Protocol.Ordered_delivery.offer od ~inst:1 ());
  Protocol.Ordered_delivery.pump od (fun _ _ -> true);
  Sim.Engine.run engine ~until:0.2;
  Alcotest.(check bool) "cycle quiescent once healed" false
    (Protocol.Ordered_delivery.repairing r);
  let healed = !sent in
  (* ...and a later second gap must be repaired again. *)
  Protocol.Ordered_delivery.note_max od 5;
  start ();
  Sim.Engine.run engine ~until:0.4;
  Alcotest.(check bool) "second gap requested" true (!sent > healed)

(* --- Failure detector ------------------------------------------------------ *)

let hb_period = 0.02
let hb_timeout = 0.25

(* A follower-side detector: [leader ()] is false, so every tick consults
   [on_suspect] with the staleness predicate for peer 0. *)
let follower_fd net ~leader ~on_suspect =
  Protocol.Failure_detector.create net ~hb_period ~hb_timeout ~leader
    ~emit:(fun () -> ())
    ~on_suspect

let test_no_false_suspicion_under_heartbeats () =
  let engine, net = fresh () in
  let suspected = ref false in
  let fd =
    follower_fd net
      ~leader:(fun () -> false)
      ~on_suspect:(fun ~stale -> if stale 0 then suspected := true)
  in
  (* The leader's heartbeats arrive on schedule for the whole run. *)
  let stop =
    Simnet.every net ~period:hb_period (fun () -> Protocol.Failure_detector.heartbeat fd 0)
  in
  Sim.Engine.run engine ~until:2.0;
  stop ();
  Alcotest.(check bool) "never suspected" false !suspected

let test_suspicion_within_timeout_of_crash () =
  let engine, net = fresh () in
  let crash_at = 0.5 in
  let first_suspect = ref nan in
  let fd =
    follower_fd net
      ~leader:(fun () -> false)
      ~on_suspect:(fun ~stale ->
        if stale 0 && Float.is_nan !first_suspect then
          first_suspect := Sim.Engine.now engine)
  in
  (* Heartbeats flow until the "leader" crashes at [crash_at]. *)
  let stop =
    Simnet.every net ~period:hb_period (fun () ->
        if Sim.Engine.now engine < crash_at then Protocol.Failure_detector.heartbeat fd 0)
  in
  Sim.Engine.run engine ~until:2.0;
  stop ();
  Alcotest.(check bool) "suspected" false (Float.is_nan !first_suspect);
  Alcotest.(check bool) "not before the timeout" true (!first_suspect >= crash_at +. hb_timeout -. hb_period);
  Alcotest.(check bool) "within timeout plus two periods" true
    (!first_suspect <= crash_at +. hb_timeout +. (2.0 *. hb_period))

let test_suspicion_does_not_refire_after_reconfiguration () =
  let engine, net = fresh () in
  let am_leader = ref false in
  let suspicions = ref 0 in
  let emissions = ref 0 in
  ignore
    (Protocol.Failure_detector.create net ~hb_period ~hb_timeout
       ~leader:(fun () -> !am_leader)
       ~emit:(fun () -> incr emissions)
       ~on_suspect:(fun ~stale ->
         if stale 0 then begin
           (* Reconfigure: this process takes over the leadership, exactly
              as Mring's become_coordinator / Uring's rebuild_ring do. *)
           incr suspicions;
           am_leader := true
         end));
  (* No heartbeats at all: peer 0 goes stale once hb_timeout elapses. *)
  Sim.Engine.run engine ~until:2.0;
  Alcotest.(check int) "exactly one suspicion" 1 !suspicions;
  Alcotest.(check bool) "leader duties running after takeover" true (!emissions > 0)

let test_epoch_change_grants_fresh_grace () =
  (* A reconfiguration must clear suspicions carried over from the previous
     epoch: a peer that went silent in the old membership gets a fresh
     [hb_timeout] of grace after [set_epoch] (before the fix, the stale
     timestamp survived the boundary and the suspicion re-fired at once).
     A peer silent through the whole new epoch must still be caught. *)
  let engine, net = fresh () in
  let reconf_at = 1.0 in
  let epoch_installed = ref false in
  let first_post_epoch = ref nan in
  let fd =
    follower_fd net
      ~leader:(fun () -> false)
      ~on_suspect:(fun ~stale ->
        if stale 0 && !epoch_installed && Float.is_nan !first_post_epoch then
          first_post_epoch := Sim.Engine.now engine)
  in
  (* Heartbeats for peer 0 stop well before the reconfiguration, so it is
     already (legitimately) stale in the old epoch when the boundary
     crosses... *)
  let stop =
    Simnet.every net ~period:hb_period (fun () ->
        if Sim.Engine.now engine < reconf_at -. (2.0 *. hb_timeout) then
          Protocol.Failure_detector.heartbeat fd 0)
  in
  (* ...the epoch turns over with peer 0 still a member... *)
  ignore
    (Simnet.after net reconf_at (fun () ->
         Protocol.Failure_detector.set_epoch fd ~epoch:1 ~members:[ 0; 1 ];
         epoch_installed := true;
         (* The carried-over staleness must not re-fire at the boundary. *)
         Alcotest.(check bool) "not stale right after set_epoch" false
           (Protocol.Failure_detector.stale fd 0)));
  Sim.Engine.run engine ~until:3.0;
  stop ();
  Alcotest.(check bool) "member silent through the new epoch is suspected" false
    (Float.is_nan !first_post_epoch);
  Alcotest.(check bool) "but only after a fresh post-epoch grace" true
    (!first_post_epoch >= reconf_at +. hb_timeout -. hb_period)

let test_removed_peer_never_goes_stale () =
  (* A peer dropped from the membership must never fire a suspicion again,
     no matter how long it stays silent. *)
  let engine, net = fresh () in
  let suspected = ref false in
  let fd =
    follower_fd net
      ~leader:(fun () -> false)
      ~on_suspect:(fun ~stale -> if stale 0 then suspected := true)
  in
  Protocol.Failure_detector.set_epoch fd ~epoch:1 ~members:[ 1; 2 ];
  Sim.Engine.run engine ~until:3.0;
  Alcotest.(check bool) "removed peer never suspected" false !suspected;
  Alcotest.(check bool) "stale is false outside the membership" false
    (Protocol.Failure_detector.stale fd 0)

let test_old_epoch_heartbeats_dropped () =
  (* Heartbeats stamped with a pre-reconfiguration epoch are stale
     evidence of liveness: they must not refresh the peer.  Same-epoch
     (and unstamped) heartbeats keep counting. *)
  let engine, net = fresh () in
  let fd =
    follower_fd net ~leader:(fun () -> false) ~on_suspect:(fun ~stale:_ -> ())
  in
  Protocol.Failure_detector.set_epoch fd ~epoch:2 ~members:[ 0; 1 ];
  let stamped = Protocol.Failure_detector.last_heartbeat fd 0 in
  ignore
    (Simnet.after net 0.5 (fun () ->
         Protocol.Failure_detector.heartbeat ~epoch:1 fd 0 (* pre-epoch: dropped *)));
  ignore
    (Simnet.after net 0.75 (fun () -> Protocol.Failure_detector.heartbeat ~epoch:2 fd 1));
  Sim.Engine.run engine ~until:1.0;
  Alcotest.(check (float 1e-9)) "old-epoch heartbeat dropped" stamped
    (Protocol.Failure_detector.last_heartbeat fd 0);
  Alcotest.(check (float 1e-9)) "current-epoch heartbeat recorded" 0.75
    (Protocol.Failure_detector.last_heartbeat fd 1);
  (* Epochs only move forward: a late set_epoch from a superseded
     reconfiguration is a no-op. *)
  Protocol.Failure_detector.set_epoch fd ~epoch:1 ~members:[ 5 ];
  Alcotest.(check int) "epoch monotonic" 2 (Protocol.Failure_detector.epoch fd)

let test_stop_silences_detector () =
  let engine, net = fresh () in
  let calls = ref 0 in
  let fd =
    follower_fd net
      ~leader:(fun () -> false)
      ~on_suspect:(fun ~stale:_ -> incr calls)
  in
  ignore (Simnet.after net 0.1 (fun () -> Protocol.Failure_detector.stop fd));
  Sim.Engine.run engine ~until:2.0;
  let after_stop = !calls in
  Alcotest.(check bool) "ticked before stop" true (after_stop > 0);
  Alcotest.(check bool) "bounded by stop time" true
    (after_stop <= int_of_float (0.1 /. hb_period) + 2)

(* --- Uid_set ------------------------------------------------------------ *)

(* Uids as one ring mints them: sequence numbers from 1 above an origin
   that varies from uid to uid. *)
let uid_of seq = Paxos.Value.make_uid ~seq ~origin:(seq mod 7)

type uid_op = Add of int | Raise of int | Union of int list

let uid_op_gen =
  QCheck.Gen.(
    frequency
      [ (8, map (fun q -> Add q) (int_range 1 120));
        (1, map (fun q -> Raise q) (int_range 1 120));
        (1, map (fun l -> Union l) (list_size (int_range 0 20) (int_range 1 120))) ])

let uid_op_print = function
  | Add q -> Printf.sprintf "add %d" q
  | Raise q -> Printf.sprintf "raise %d" q
  | Union l -> "union [" ^ String.concat ";" (List.map string_of_int l) ^ "]"

(* Against a plain table of sequence numbers: every membership answer over
   the range agrees, the floor is the least non-member, and the sparse
   members are exactly the members above it.  A copy shipped as floor plus
   sparse list, as a P1b carries it, rebuilds the same set. *)
let prop_uid_set_matches_table =
  QCheck.Test.make ~name:"uid_set: membership equals a plain set" ~count:300
    (QCheck.make ~print:QCheck.Print.(list uid_op_print) QCheck.Gen.(list_size (int_range 0 200) uid_op_gen))
    (fun ops ->
      let s = Protocol.Uid_set.create () and r = Hashtbl.create 64 in
      let add_ref q = Hashtbl.replace r q () in
      List.iter
        (function
          | Add q ->
              Protocol.Uid_set.add s (uid_of q);
              add_ref q
          | Raise f ->
              Protocol.Uid_set.raise_floor s f;
              for q = 1 to f - 1 do add_ref q done
          | Union l ->
              let src = Protocol.Uid_set.create () in
              List.iter (fun q -> Protocol.Uid_set.add src (uid_of q)) l;
              Protocol.Uid_set.union ~into:s src;
              List.iter add_ref l)
        ops;
      let shipped = Protocol.Uid_set.create () in
      Protocol.Uid_set.raise_floor shipped (Protocol.Uid_set.floor s);
      List.iter (Protocol.Uid_set.add shipped) (Protocol.Uid_set.sparse_list s);
      let rec least q = if Hashtbl.mem r q then least (q + 1) else q in
      let floor = Protocol.Uid_set.floor s in
      let above = Hashtbl.fold (fun q () n -> if q >= floor then n + 1 else n) r 0 in
      let agree = ref true in
      for q = 1 to 130 do
        let want = Hashtbl.mem r q in
        agree :=
          !agree
          && Protocol.Uid_set.mem s (uid_of q) = want
          && Protocol.Uid_set.mem shipped (uid_of q) = want
      done;
      !agree && floor = least 1
      && Protocol.Uid_set.sparse_count s = above
      && List.for_all
           (fun uid -> Paxos.Value.uid_seq uid >= floor && uid = uid_of (Paxos.Value.uid_seq uid))
           (Protocol.Uid_set.sparse_list s))

(* Sequence numbers added in order never leave the floor: the set holds
   no table entry however many it has seen. *)
let test_uid_set_in_order_stays_flat () =
  let s = Protocol.Uid_set.create () in
  for q = 1 to 100_000 do
    Protocol.Uid_set.add s (uid_of q)
  done;
  Alcotest.(check int) "floor" 100_001 (Protocol.Uid_set.floor s);
  Alcotest.(check int) "no sparse entry" 0 (Protocol.Uid_set.sparse_count s);
  Protocol.Uid_set.reset s;
  Alcotest.(check bool) "reset empties it" false (Protocol.Uid_set.mem s (uid_of 1))

let suite =
  [ Alcotest.test_case "batcher: oversized item seals alone" `Quick
      test_oversized_item_seals_alone;
    Alcotest.test_case "batcher: timeout flushes sub-threshold batch" `Quick
      test_timeout_flushes_partial_batch;
    Alcotest.test_case "batcher: timer is a no-op when empty" `Quick test_timeout_noop_when_empty;
    Alcotest.test_case "batcher: batch_bytes <= 0 disables batching" `Quick
      test_zero_batch_bytes_disables_batching;
    Alcotest.test_case "batcher: buffer bound rejects and counts drops" `Quick
      test_buffer_bound_drops;
    Alcotest.test_case "batcher: clear disarms a pending timeout" `Quick
      test_clear_disarms_pending_timeout;
    Alcotest.test_case "batcher: under-full ready allocates nothing" `Quick
      test_ready_underfull_allocates_nothing;
    Alcotest.test_case "batcher: seal allocates only the batch" `Quick
      test_seal_allocates_only_the_batch;
    Alcotest.test_case "counters: incr allocates nothing" `Quick
      test_counter_incr_allocates_nothing;
    Alcotest.test_case "retry: ack during iter_due does not fire stale entries" `Quick
      test_iter_due_ack_during_iteration;
    QCheck_alcotest.to_alcotest prop_uid_set_matches_table;
    Alcotest.test_case "uid_set: in-order adds keep no sparse entry" `Quick
      test_uid_set_in_order_stays_flat;
    Alcotest.test_case "od: drop_below frees speculation marks" `Quick
      test_drop_below_frees_speculation_marks;
    Alcotest.test_case "od: drain_sink is iterative, not per-item recursive" `Quick
      test_drain_sink_does_not_recurse_per_item;
    Alcotest.test_case "od: pump allocates nothing per entry" `Quick test_pump_allocates_nothing;
    Alcotest.test_case "od: sink_offer skips the queue when idle" `Quick test_sink_offer;
    Alcotest.test_case "od: repair re-arms through a transient death" `Quick
      test_repair_rearms_through_transient_death;
    Alcotest.test_case "od: fast_forward starts delivery at the boundary" `Quick
      test_fast_forward_starts_at_boundary;
    Alcotest.test_case "od: repair retargets when the source leaves" `Quick
      test_repair_retargets_when_source_leaves;
    Alcotest.test_case "od: repair handles a gap after quiescence" `Quick
      test_repair_gap_after_quiescence;
    Alcotest.test_case "fd: no false suspicion while heartbeats flow" `Quick
      test_no_false_suspicion_under_heartbeats;
    Alcotest.test_case "fd: suspicion within hb_timeout of a crash" `Quick
      test_suspicion_within_timeout_of_crash;
    Alcotest.test_case "fd: reconfiguring suspicion does not re-fire" `Quick
      test_suspicion_does_not_refire_after_reconfiguration;
    Alcotest.test_case "fd: epoch change grants fresh suspicion grace" `Quick
      test_epoch_change_grants_fresh_grace;
    Alcotest.test_case "fd: removed peer never goes stale" `Quick
      test_removed_peer_never_goes_stale;
    Alcotest.test_case "fd: old-epoch heartbeats are dropped" `Quick
      test_old_epoch_heartbeats_dropped;
    Alcotest.test_case "fd: stop silences the monitor" `Quick test_stop_silences_detector ]
