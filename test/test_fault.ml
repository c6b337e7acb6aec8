(* Tests for the fault-injection harness (lib/fault): the safety auditor's
   incremental checks, determinism of seeded chaos runs, and regression
   pins on the exact (protocol, seed) pairs that exposed latent protocol
   bugs — each pinned seed failed before its fix and must stay green. *)

(* --- Safety auditor -------------------------------------------------------- *)

let test_auditor_accepts_clean_history () =
  let s = Fault.Safety.create ~name:"clean" ~n_learners:3 in
  for uid = 1 to 50 do
    Fault.Safety.broadcast s uid
  done;
  for uid = 1 to 50 do
    for l = 0 to 2 do
      Fault.Safety.delivered s ~learner:l uid
    done
  done;
  let v = Fault.Safety.verdict s in
  Alcotest.(check bool) "ok" true v.ok;
  Alcotest.(check (list string)) "no violations" [] v.violations;
  Alcotest.(check int) "broadcasts" 50 v.broadcast

let test_auditor_flags_duplicate () =
  let s = Fault.Safety.create ~name:"dup" ~n_learners:2 in
  Fault.Safety.broadcast s 7;
  Fault.Safety.delivered s ~learner:0 7;
  Fault.Safety.delivered s ~learner:1 7;
  Fault.Safety.delivered s ~learner:0 7;
  let v = Fault.Safety.verdict s in
  Alcotest.(check bool) "not ok" false v.ok;
  Alcotest.(check bool) "names the duplicate" true
    (List.exists
       (fun msg ->
         let has needle =
           let nl = String.length needle and ml = String.length msg in
           let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
           at 0
         in
         has "no-duplication")
       v.violations)

let test_auditor_flags_order_divergence () =
  let s = Fault.Safety.create ~name:"order" ~n_learners:2 in
  Fault.Safety.broadcast s 1;
  Fault.Safety.broadcast s 2;
  (* Learner 0 fixes the canonical order 1;2 — learner 1 swaps it. *)
  Fault.Safety.delivered s ~learner:0 1;
  Fault.Safety.delivered s ~learner:0 2;
  Fault.Safety.delivered s ~learner:1 2;
  Fault.Safety.delivered s ~learner:1 1;
  let v = Fault.Safety.verdict s in
  Alcotest.(check bool) "not ok" false v.ok

let test_auditor_flags_creation () =
  let s = Fault.Safety.create ~name:"creation" ~n_learners:1 in
  Fault.Safety.delivered s ~learner:0 99 (* never broadcast *);
  let v = Fault.Safety.verdict s in
  Alcotest.(check bool) "not ok" false v.ok

let test_auditor_agreement_at_quiescence () =
  (* Learner 2 stops one delivery short of the others.  Violations
     accumulate in the auditor, so the two verdicts use separate
     instances fed the same history. *)
  let feed () =
    let s = Fault.Safety.create ~name:"agree" ~n_learners:3 in
    Fault.Safety.broadcast s 1;
    Fault.Safety.broadcast s 2;
    List.iter (fun l -> Fault.Safety.delivered s ~learner:l 1) [ 0; 1; 2 ];
    Fault.Safety.delivered s ~learner:0 2;
    Fault.Safety.delivered s ~learner:1 2;
    s
  in
  (* Uniform agreement must flag the laggard... *)
  let v = Fault.Safety.verdict (feed ()) in
  Alcotest.(check bool) "lagging learner breaks agreement" false v.ok;
  (* ...unless it is dead, in which case only alive learners count. *)
  let v' = Fault.Safety.verdict ~alive:[ 0; 1 ] (feed ()) in
  Alcotest.(check bool) "dead learner excused" true v'.ok

(* --- Chaos determinism ----------------------------------------------------- *)

let test_same_seed_same_outcome () =
  (* The seed is the repro: two runs of the same (protocol, seed) must
     produce identical verdicts, fault timelines and delivery counts. *)
  List.iter
    (fun protocol ->
      let a = Fault.Chaos.run_one ~protocol ~seed:3 ~duration:2.0 () in
      let b = Fault.Chaos.run_one ~protocol ~seed:3 ~duration:2.0 () in
      Alcotest.(check bool) (protocol ^ ": same verdict") a.Fault.Chaos.ok b.Fault.Chaos.ok;
      Alcotest.(check string) (protocol ^ ": same summary") a.summary b.summary;
      Alcotest.(check (list string))
        (protocol ^ ": same violations")
        a.violations b.violations;
      Alcotest.(check (list (pair (float 1e-9) string)))
        (protocol ^ ": same fault timeline")
        a.events b.events)
    [ "mring"; "uring"; "lcr" ]

let test_different_seeds_different_timelines () =
  let a = Fault.Chaos.run_one ~protocol:"mring" ~seed:1 ~duration:2.0 () in
  let b = Fault.Chaos.run_one ~protocol:"mring" ~seed:2 ~duration:2.0 () in
  Alcotest.(check bool) "timelines differ" false (a.Fault.Chaos.events = b.Fault.Chaos.events)

(* Every fault heals by 80 % of the run, whatever its length: each fault
   that opens (a partition, a rule window, a slow CPU) closes, and every
   closing event (heal, stop, CPU restore, restart) lands by then.  Fault
   durations are absolute seconds while start times scale with the run, so
   unclamped a 2 s run restored a slowed CPU at 1.79 s. *)
let test_faults_heal_by_80_percent () =
  let has p (_, l) = String.starts_with ~prefix:p l in
  let count p evs = List.length (List.filter (has p) evs) in
  let closers = [ "heal("; "stop("; "cpu_restore("; "restart(" ] in
  List.iter
    (fun duration ->
      List.iter
        (fun protocol ->
          for seed = 0 to 4 do
            let evs = (Fault.Chaos.run_one ~protocol ~seed ~duration ()).Fault.Chaos.events in
            List.iter
              (fun ((t, l) as ev) ->
                if List.exists (fun p -> has p ev) closers && t > (0.8 *. duration) +. 1e-6 then
                  Alcotest.failf "%s seed %d at %.1f s: %s at %.3f s" protocol seed duration l t)
              evs;
            List.iter
              (fun (opener, closer) ->
                if count opener evs <> count closer evs then
                  Alcotest.failf "%s seed %d at %.1f s: %d %s but %d %s" protocol seed duration
                    (count opener evs) opener (count closer evs) closer)
              [ ("partition(", "heal("); ("start(", "stop("); ("slow_cpu(", "cpu_restore(") ]
          done)
        Fault.Chaos.protocols)
    [ 1.0; 2.0 ]

(* --- Regression pins ------------------------------------------------------- *)

(* Each of these (protocol, seed, duration) triples produced a safety
   violation before a protocol fix landed; the seed replays the exact
   fault schedule that exposed the bug.

   - mring seed 16:     coordinator crash after GC had pruned votes for
                        decided values; the new coordinator re-proposed
                        them (duplicate delivery).  Fixed by remembering
                        pruned vote uids ([x_done_uids]).
   - uring seed 18:     two position kills; decisions in flight through
                        the dead member were lost for everyone downstream
                        (uniform-agreement violation at quiescence).
                        Fixed by the Phase-1 catch-up protocol
                        ([m_log] + [UP1b.next]) and the outstanding-window
                        reset in [rebuild_ring].
   - multiring 12/13:   the mring failover-duplicate bug surfacing through
                        Multi-Ring's merge layer after [kill_coord].
   - lcr seed 1:        a body whose sender left the ring circulated
                        forever (the forwarding stop condition never
                        triggered), re-delivering on every revolution.
                        Fixed by the per-sender timestamp watermark.
   - mring-pressure
     seeds 1/13:        an acceptor killed with bytes still in service:
                        the stale service completions landing after
                        [Simnet.recover] drove the receive-buffer gauge
                        negative, and the crashed sender's connection
                        backlog replayed into the ring after the restart.
                        Fixed by the per-proc [rcvbuf_epoch] / per-conn
                        [c_epoch] guards and by [Simnet.kill] clearing the
                        victim's outgoing backlogs.
   - mring-reconfig
     seed 16:           the founding coordinator served its own undecided
                        vote to a learner's gap repair (repair responses
                        are taken as decisions) and then crashed inside
                        the handoff window: the takeover correctly no-op
                        filled the instance and the proposer's
                        resubmission re-decided the item under a second
                        instance — one learner delivered it twice.  Fixed
                        by serving only genuinely decided instances from
                        [RepairReq].
   - mring-join
     seed 0:            the chain head voted and its spontaneous Phase 2B
                        was lost to the joiner partition; with the round
                        unchanged, every retransmitted Phase 2A was a
                        duplicate and nothing restarted the chain — the
                        epoch's first instance hung forever and both
                        learners stalled behind it.  Fixed by having the
                        chain head re-send its Phase 2B on duplicate
                        Phase 2As.
   - kv-lease seeds
     4/24/69 at 2.0 s,
     23/72/89 at 4.0 s: a write revoked a lagging replica's lease and the
                        next write found that entry already revoked, so it
                        answered without waiting; the lagging replica,
                        not yet past the revocation, then served a stale
                        local read under its old lease.  Fixed by deferring
                        a write until every holder whose latest grant still
                        runs has confirmed the revocation ([KWAck] epochs). *)
let pinned =
  [ ("mring", 16, 4.0); ("uring", 18, 4.0); ("multiring", 12, 4.0); ("multiring", 13, 4.0);
    ("lcr", 1, 4.0); ("mring-pressure", 1, 4.0); ("mring-pressure", 13, 4.0);
    ("mring-reconfig", 16, 4.0); ("mring-join", 0, 4.0); ("kv-lease", 4, 2.0);
    ("kv-lease", 24, 2.0); ("kv-lease", 69, 2.0); ("kv-lease", 23, 4.0);
    ("kv-lease", 72, 4.0); ("kv-lease", 89, 4.0) ]

let test_pinned_seeds_stay_green () =
  List.iter
    (fun (protocol, seed, duration) ->
      let o = Fault.Chaos.run_one ~protocol ~seed ~duration () in
      if not o.Fault.Chaos.ok then
        Alcotest.failf "%s seed %d at %.1f s regressed: %s" protocol seed duration
          (String.concat "; " o.violations))
    pinned

let test_smoke_every_protocol () =
  List.iter
    (fun protocol ->
      let o = Fault.Chaos.run_one ~protocol ~seed:0 ~duration:2.0 () in
      if not o.Fault.Chaos.ok then
        Alcotest.failf "%s seed 0 failed: %s" protocol (String.concat "; " o.violations))
    Fault.Chaos.protocols

let suite =
  [ Alcotest.test_case "safety: accepts a clean history" `Quick test_auditor_accepts_clean_history;
    Alcotest.test_case "safety: flags duplicate delivery" `Quick test_auditor_flags_duplicate;
    Alcotest.test_case "safety: flags order divergence" `Quick test_auditor_flags_order_divergence;
    Alcotest.test_case "safety: flags delivery without broadcast" `Quick
      test_auditor_flags_creation;
    Alcotest.test_case "safety: uniform agreement at quiescence" `Quick
      test_auditor_agreement_at_quiescence;
    Alcotest.test_case "chaos: same seed replays the same run" `Quick test_same_seed_same_outcome;
    Alcotest.test_case "chaos: different seeds diverge" `Quick
      test_different_seeds_different_timelines;
    Alcotest.test_case "chaos: every fault heals by 80% of the run" `Quick
      test_faults_heal_by_80_percent;
    Alcotest.test_case "chaos: pinned regression seeds stay green" `Slow
      test_pinned_seeds_stay_green;
    Alcotest.test_case "chaos: every protocol survives seed 0" `Slow test_smoke_every_protocol ]
