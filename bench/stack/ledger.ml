(* Per-layer metrics, from a separate traced run of a workload at its
   nominal rate.  A [Trace.t] is installed before the deployment is built,
   every process handler is wrapped with a wall-clock timer, and replay
   drivers feed the workload's op stream to the executor and the btree
   service directly.  Nothing inside the libraries is instrumented for
   this: the spans come from the tracing the layers already emit. *)

open Run

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Virtual seconds of the traced run: 1 s, but [failover] runs its full
   length so the kill and the recovery are in it. *)
let traced_shape (w : workload) =
  let s = nominal w in
  match w.kill_at with None -> { s with till = 1.0 } | Some _ -> s

(* Wall nanoseconds spent inside the handlers of each role's processes. *)
let time_handlers d =
  let cells = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let r = role p in
      let cell =
        match Hashtbl.find_opt cells r with
        | Some c -> c
        | None ->
            let c = ref 0 in
            Hashtbl.add cells r c;
            c
      in
      let h = Simnet.handler_of p in
      Simnet.set_handler p (fun msg ->
          let t0 = now_ns () in
          h msg;
          cell := !cell + (now_ns () - t0)))
    (procs d.net);
  cells

let roles = [ "mr-acc"; "mr-lrn"; "mr-prop" ]

(* Replay: the same op stream, rebuilt from the seed, fed straight to
   [Psmr.Executor.submit] over a fresh btree service and separately to the
   service's [execute]; then the executor's unreplicated virtual ceiling
   with every command offered at once, for 1, 2 and 4 workers. *)
let replay preset ~seed ~rate ~till =
  let wl = Kv.Ycsb.workload preset (Sim.Rng.create (seed + 1)) ~rate:(OL.Constant rate) in
  let rec draw acc = if (OL.peek wl).OL.at <= till then draw (OL.next wl :: acc) else Array.of_list (List.rev acc) in
  let ops = draw [] in
  let n = float_of_int (Array.length ops) in
  let service () =
    let c = Kv.default_config in
    Smr.Btree_service.create ~initial_keys:c.initial_keys ~key_range:c.key_range ~seed:1 ()
  in
  let executor workers =
    Psmr.Executor.create ~mode:Psmr.Executor.Pessimistic ~n_workers:workers (service ()).Smr.Btree_service.service
  in
  let submit_all ex ~at =
    Array.iteri
      (fun uid (a : OL.arrival) ->
        ignore (Psmr.Executor.submit ex ~now:(at a) ~uid ~reads:a.reads ~writes:a.writes a.op))
      ops
  in
  let timed f =
    Gc.full_major ();
    let t0 = now_ns () in
    f ();
    float_of_int (now_ns () - t0) /. n
  in
  let submit_ns =
    let ex = executor Kv.default_config.n_workers in
    timed (fun () -> submit_all ex ~at:(fun a -> a.OL.at))
  in
  let execute_ns =
    let svc = (service ()).Smr.Btree_service.service in
    timed (fun () -> Array.iter (fun (a : OL.arrival) -> ignore (svc.Smr.Service.execute a.op)) ops)
  in
  let capacity workers =
    let ex = executor workers in
    submit_all ex ~at:(fun _ -> 0.0);
    n /. Psmr.Executor.last_commit ex
  in
  [ m "psmr.submit_ns" "ns" submit_ns;
    m "btree.execute_ns" "ns" execute_ns;
    m "psmr.capacity_ops_1w" "ops/s" (capacity 1);
    m "psmr.capacity_ops_2w" "ops/s" (capacity 2);
    m "psmr.capacity_ops_4w" "ops/s" (capacity 4) ]

type measurement = {
  common : metric list;  (** every workload reports these, in this order *)
  extra : metric list;  (** metrics of layers only this workload exercises *)
  same : bool;  (** the traced run's virtual-time outcome equals the untraced one's *)
  traced : outcome;
}

(* One measurement: an untraced run and a traced run of the same shape and
   seed, both with handler timers.  Wall time is split by layer in the
   untraced run, so the tracer's own cost does not land in any layer; the
   traced run gives the span decomposition and the tracing overhead.  On
   [abcast-8k] the KV and executor stages are absent and read 0. *)
let measure ?shape (w : workload) ~seed =
  let shape = Option.value shape ~default:(traced_shape w) in
  let timers = ref (Hashtbl.create 1) in
  let plain = run ~instrument:(fun d -> timers := time_handlers d) w ~seed shape in
  let cells = !timers in
  let tracer = Trace.create () in
  let hold = ref None in
  let traced =
    run ~tracer
      ~instrument:(fun d ->
        ignore (time_handlers d);
        hold := Some d)
      w ~seed shape
  in
  let d = Option.get !hold in
  let ops = float_of_int (Stdlib.max 1 traced.attempted) in
  let handler_ns r = match Hashtbl.find_opt cells r with Some c -> float_of_int !c | None -> 0.0 in
  let in_handlers = Hashtbl.fold (fun _ c acc -> acc + !c) cells 0 in
  let decomp = Trace.decomposition tracer in
  let stage r s ~p99 =
    match List.assoc_opt r decomp with
    | None -> 0.0
    | Some stages -> (
        match List.find_opt (fun (st, _, _, _) -> st = s) stages with
        | Some (_, _, p50, p99v) -> 1e6 *. if p99 then p99v else p50
        | None -> 0.0)
  in
  let all = procs d.net in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 all in
  let till = shape.till in
  let busiest_by r by = match busiest d.net ~role:r ~by with Some (_, v) -> v | None -> 0.0 in
  let cpu p = Sim.Stats.Busy.utilization (Simnet.cpu_busy (Simnet.proc_node p)) ~from:0.0 ~till in
  let mbps p = Sim.Stats.Rate.mbps (Simnet.sent_rate p) ~from:0.0 ~till in
  let kv_count = match d.sys with Kv_sys s -> Kv.counter s.kv | Ab_sys _ -> fun _ -> 0 in
  let local = kv_count "kv_local_reads" and nacks = kv_count "kv_local_nacks" in
  let common =
    [ m "sim.dispatch_ns_per_op" "ns" (float_of_int (plain.run_ns - in_handlers) /. ops);
      m "ringpaxos.handler_ns_per_op" "ns" (handler_ns "mr-acc" /. ops);
      m "client.handler_ns_per_op" "ns" (handler_ns "mr-prop" /. ops);
      m "replica.handler_ns_per_op" "ns" (handler_ns "mr-lrn" /. ops);
      m "net.msgs_per_op" "count" (float_of_int (sum (fun p -> Sim.Stats.Rate.events (Simnet.sent_rate p))) /. ops);
      m "net.bytes_per_op" "bytes" (float_of_int (sum (fun p -> Sim.Stats.Rate.bytes (Simnet.sent_rate p))) /. ops);
      m "net.mcast_pkts_per_op" "count" (float_of_int (Simnet.mcast_packets d.net) /. ops);
      m "net.drops" "count" (float_of_int (sum Simnet.drops + Simnet.switch_drops d.net));
      m "net.pool_records" "count" (float_of_int (Simnet.pool_allocated d.net)) ]
    @ List.concat_map
        (fun r ->
          List.map (fun s -> m (Printf.sprintf "%s.%s.p99_us" r s) "us" (stage r s ~p99:true)) [ "queue"; "wire"; "cpu" ]
          @ [ m (r ^ ".cpu_pct") "%" (busiest_by r cpu); m (r ^ ".sent_mbps") "Mbps" (busiest_by r mbps) ])
        roles
    @ [ m "mr-acc.ordering.p50_us" "us" (stage "mr-acc" "ordering" ~p99:false);
        m "mr-acc.ordering.p99_us" "us" (stage "mr-acc" "ordering" ~p99:true);
        m "mr-lrn.dispatch.p99_us" "us" (stage "mr-lrn" "dispatch" ~p99:true);
        m "mr-lrn.execute.p99_us" "us" (stage "mr-lrn" "execute" ~p99:true);
        m "mr-lrn.commit.p99_us" "us" (stage "mr-lrn" "commit" ~p99:true);
        m "mr-lrn.lease.p99_us" "us" (stage "mr-lrn" "lease" ~p99:true);
        m "kv.local_read_frac" "ratio" (float_of_int local /. ops);
        m "kv.nack_frac" "ratio" (float_of_int nacks /. float_of_int (Stdlib.max 1 (local + nacks)));
        m "kv.read_timeouts" "count" (float_of_int (kv_count "kv_read_timeouts"));
        m "kv.deadline_responses" "count" (float_of_int (kv_count "kv_deadline_responses"));
        m "trace.overhead_pct" "%" (100.0 *. ((float_of_int traced.run_ns /. float_of_int plain.run_ns) -. 1.0));
        m "trace.dropped_events" "count" (float_of_int (Trace.dropped tracer)) ]
  in
  let extra =
    match d.sys with
    | Ab_sys s ->
        let decided = Ringpaxos.Mring.decided s.mr in
        let ctr k = Option.value ~default:0 (List.assoc_opt k (Ringpaxos.Mring.counters s.mr)) in
        [ m "ringpaxos.ops_per_instance" "count"
            (float_of_int (Abcast.Recorder.items s.recorder) /. float_of_int (Stdlib.max 1 decided));
          m "ringpaxos.batch_timeouts" "count" (float_of_int (ctr "batch_timer"));
          m "ringpaxos.coord_drops" "count" (float_of_int (Ringpaxos.Mring.coord_drops s.mr)) ]
    | Kv_sys s -> replay s.preset ~seed ~rate:shape.rate ~till
  in
  { common; extra; same = same_virtual plain traced && plain.checks = traced.checks; traced }
