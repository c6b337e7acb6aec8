(* Command-line front end: quick demos and scenario runs without writing
   OCaml.  `hpsmr_cli --help` lists the commands. *)

open Cmdliner

type Simnet.payload += CliLoad

let peak_cmd =
  let proto =
    Arg.(
      required
      & pos 0 (some (enum [ ("mring", `Mring); ("uring", `Uring) ])) None
      & info [] ~docv:"PROTOCOL" ~doc:"mring or uring")
  in
  let duration =
    Arg.(value & opt float 2.0 & info [ "d"; "duration" ] ~doc:"Simulated seconds.")
  in
  let run proto duration =
    let env = Hpsmr.Env.create ~seed:11 () in
    let rec_ = Hpsmr.Abcast.Recorder.create env.engine in
    let stop =
      match proto with
      | `Mring ->
          let mr =
            Hpsmr.Ringpaxos.Mring.create env.net Hpsmr.Ringpaxos.Mring.default_config
              ~n_proposers:2 ~n_learners:2
              ~learner_parts:(fun _ -> [ 0 ])
              ~deliver:(fun ~learner ~inst:_ v ->
                if learner = 0 then Option.iter (Hpsmr.Abcast.Recorder.value rec_) v)
          in
          Hpsmr.Abcast.Loadgen.constant env.net ~rate_mbps:1500.0 ~size:8192 (fun sz ->
              ignore (Hpsmr.Ringpaxos.Mring.submit mr ~proposer:0 ~size:sz CliLoad);
              ignore (Hpsmr.Ringpaxos.Mring.submit mr ~proposer:1 ~size:sz CliLoad);
              true)
      | `Uring ->
          let ur =
            Hpsmr.Ringpaxos.Uring.create env.net Hpsmr.Ringpaxos.Uring.default_config
              ~positions:(Hpsmr.Ringpaxos.Uring.standard_positions ~n:5)
              ~deliver:(fun ~learner ~inst:_ v ->
                if learner = 0 then Hpsmr.Abcast.Recorder.value rec_ v)
          in
          let turn = ref 0 in
          Hpsmr.Abcast.Loadgen.constant env.net ~rate_mbps:1500.0 ~size:8192 (fun sz ->
              incr turn;
              ignore
                (Hpsmr.Ringpaxos.Uring.submit ur ~proposer:(!turn mod 5) ~size:sz CliLoad);
              true)
    in
    Hpsmr.Env.run env ~for_:duration;
    stop ();
    Printf.printf "delivered %.1f Mbps, %.0f msg/s, latency %.2f ms (trimmed mean)\n"
      (Hpsmr.Abcast.Recorder.mbps rec_ ~from:(duration /. 3.0) ~till:duration)
      (Hpsmr.Abcast.Recorder.msgs_per_sec rec_ ~from:(duration /. 3.0) ~till:duration)
      (Hpsmr.Abcast.Recorder.lat_trimmed_ms rec_)
  in
  Cmd.v
    (Cmd.info "peak" ~doc:"Measure peak throughput of M-Ring or U-Ring Paxos.")
    Term.(const run $ proto $ duration)

let cloud_cmd =
  let libs =
    [ ("spaxos", Hpsmr.Cloud.S_paxos);
      ("openreplica", Hpsmr.Cloud.Openreplica);
      ("uring", Hpsmr.Cloud.U_ring);
      ("libpaxos", Hpsmr.Cloud.Libpaxos);
      ("libpaxos+", Hpsmr.Cloud.Libpaxos_plus) ]
  in
  let lib =
    Arg.(required & pos 0 (some (enum libs)) None & info [] ~docv:"LIB" ~doc:"Paxos library.")
  in
  let kill =
    Arg.(
      value
      & opt (some float) None
      & info [ "kill-leader-at" ] ~doc:"Crash the leader at this time (seconds).")
  in
  let hetero = Arg.(value & flag & info [ "hetero" ] ~doc:"One replica 4x slower.") in
  let run lib kill hetero =
    let r = Hpsmr.Cloud.run ~lib ?kill_leader_at:kill ~hetero () in
    Printf.printf "steady %.1f Mbps, %.1f kcps, latency %.2f ms\n" r.Hpsmr.Cloud.mbps
      r.Hpsmr.Cloud.kcps r.Hpsmr.Cloud.lat_ms;
    (match kill with
    | Some _ ->
        Printf.printf "after the crash: outage %.1fs, recovered=%b\n" r.Hpsmr.Cloud.outage
          r.Hpsmr.Cloud.recovered
    | None -> ());
    List.iter (fun (t, v) -> Printf.printf "  t=%5.1f  %8.1f Mbps\n" t v) r.Hpsmr.Cloud.series
  in
  Cmd.v
    (Cmd.info "cloud" ~doc:"Run a Paxos library in the EC2-like environment (Ch. 7).")
    Term.(const run $ lib $ kill $ hetero)

let kv_cmd =
  let ops = Arg.(value & opt int 1000 & info [ "n" ] ~doc:"Operations to run.") in
  let run n =
    let env = Hpsmr.Env.create ~seed:3 () in
    let kv = Hpsmr.Kv.create env.net Hpsmr.Kv.default_config ~n_clients:1 in
    let completed = ref 0 and last = ref 0.0 in
    let rec step i =
      if i <= n then
        Hpsmr.Kv.put kv ~key:i ~value:(2 * i) ~k:(fun _ ->
            incr completed;
            last := Hpsmr.Env.now env;
            step (i + 1))
    in
    step 1;
    Hpsmr.Env.run env ~for_:30.0;
    Printf.printf "completed %d/%d puts in %.2f simulated seconds\n" !completed n !last
  in
  Cmd.v
    (Cmd.info "kv" ~doc:"Closed-loop puts against the replicated KV service.")
    Term.(const run $ ops)

let () =
  let doc = "High-performance state-machine replication demos" in
  exit (Cmd.eval (Cmd.group (Cmd.info "hpsmr_cli" ~doc) [ peak_cmd; cloud_cmd; kv_cmd ]))
