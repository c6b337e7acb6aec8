(* Workloads, deployments and one measured run of the full stack.

   Every layer is driven and observed from outside, through public
   functions only: the deployment is built with [Kv.create] or
   [Ringpaxos.Mring.create], load comes from [Kv.start_open] or
   [Ringpaxos.Mring.submit], and completions are seen by wrapping the
   client processes' handlers or the learners' delivery callback.  The
   simulator is single-threaded, so a run is one OS thread; wall time is
   read from bechamel's monotonic clock. *)

module OL = Smr.Workload.Open_loop

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type app = Ycsb of Kv.Ycsb.preset | Abcast

type workload = {
  name : string;
  app : app;
  rate : float;  (** nominal offered load, operations per second *)
  load : float;  (** virtual seconds with arrivals; a drain follows *)
  kill_at : float option;  (** ring coordinator crash time *)
}

(* After the last arrival the run continues this long, so every response
   still in flight can land; an operation not complete by then failed. *)
let drain = 0.5

(* Completion gaps are measured from here on; on [failover] it is the kill. *)
let gap_from = 1.0

(* The coordinator is the acceptor that sent the most bytes before this. *)
let coord_sample = 0.5
let n_clients = 4
let n_learners = 5
let abcast_size = Abcast.Presets.message_size `Mring

(* Each workload stresses other layers, so that a change to one layer
   moves one workload and leaves another as the control:
   - ycsb-a: the ordered path (batcher, M-Ring, merge, executor, btree,
     write-defer) does the work; the lease tier only wastes attempts;
   - ycsb-c: lease-served local reads over unicast; the ring carries only
     grants, so an ordering change should not move it;
   - abcast-8k: the paper's headline run, M-Ring Paxos alone with 8 KB
     values; KV, executor and leases are bypassed;
   - failover: the recovery path of the same ordering layer (failure
     detector, Phase 1, retry, gap repair). *)
let workloads =
  [ { name = "ycsb-a"; app = Ycsb Kv.Ycsb.A; rate = 48_000.0; load = 3.0; kill_at = None };
    { name = "ycsb-c"; app = Ycsb Kv.Ycsb.C; rate = 24_000.0; load = 3.0; kill_at = None };
    { name = "abcast-8k"; app = Abcast; rate = 600e6 /. float_of_int (abcast_size * 8); load = 2.0; kill_at = None };
    { name = "failover"; app = Ycsb Kv.Ycsb.A; rate = 16_000.0; load = 3.0; kill_at = Some 1.0 } ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* --- completion gaps ------------------------------------------------------- *)

(* Every stretch of [from, till] without a completion.  [last] (the last
   completion) and the stretches live in float arrays, so noting a
   completion allocates nothing inside the measured run. *)
type gaps = { g_from : float; g_till : float; last : Float.Array.t; mutable buf : Float.Array.t; mutable n : int }

let gaps ~from ~till =
  { g_from = from; g_till = till; last = Float.Array.make 1 from; buf = Float.Array.create 1024; n = 0 }

let push g x =
  if g.n = Float.Array.length g.buf then begin
    let b = Float.Array.create (2 * g.n) in
    Float.Array.blit g.buf 0 b 0 g.n;
    g.buf <- b
  end;
  Float.Array.set g.buf g.n x;
  g.n <- g.n + 1
[@@inline]

let note g t =
  let last = Float.Array.get g.last 0 in
  if t > last && last < g.g_till then begin
    push g ((if t < g.g_till then t else g.g_till) -. last);
    Float.Array.set g.last 0 t
  end

(* The stall met in the slowest 1 % of the window: the stretches, longest
   first, until they cover 1 % of [from, till].  An outage longer than that
   (20 ms in a 2 s window) is reported exactly.  On a healthy run it is a
   high quantile of the stalls, resting on dozens of them, where the single
   longest stall would swing by a fifth from seed to seed. *)
let stall g =
  let last = Float.Array.get g.last 0 in
  let a = Float.Array.sub g.buf 0 g.n in
  let a = if last < g.g_till then Float.Array.append a (Float.Array.make 1 (g.g_till -. last)) else a in
  Float.Array.sort (fun x y -> Float.compare y x) a;
  let budget = 0.01 *. (g.g_till -. g.g_from) in
  let rec go i covered =
    if i >= Float.Array.length a then 0.0
    else
      let x = Float.Array.get a i in
      if covered +. x >= budget then x else go (i + 1) (covered +. x)
  in
  go 0 0.0

(* --- deployments ------------------------------------------------------------- *)

type sys =
  | Kv_sys of { kv : Kv.t; preset : Kv.Ycsb.preset; mutable wl : OL.t option; mutable skipped : int }
  | Ab_sys of {
      mr : Ringpaxos.Mring.t;
      recorder : Abcast.Recorder.t;
      mutable submits : int;
      digests : int array;  (** rolling hash of each learner's uid sequence *)
      counts : int array;
    }

type dep = { engine : Sim.Engine.t; net : Simnet.t; seed : int; sys : sys; gaps : gaps }

let create ?tracer ?(kv_cfg = Kv.default_config) w ~seed ~gaps =
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create seed) in
  Option.iter (fun tr -> Simnet.set_tracer net (Some tr)) tracer;
  let sys =
    match w.app with
    | Ycsb preset ->
        let kv = Kv.create net kv_cfg ~n_clients in
        for c = 0 to n_clients - 1 do
          let p = Kv.client_proc kv c in
          let h = Simnet.handler_of p in
          Simnet.set_handler p (fun m ->
              (match m.Simnet.payload with
              | Kv.KResp _ | Kv.KReadResp { ok = true; _ } -> note gaps (Simnet.now net)
              | _ -> ());
              h m)
        done;
        Kv_sys { kv; preset; wl = None; skipped = 0 }
    | Abcast ->
        let recorder = Abcast.Recorder.create engine in
        let digests = Array.make n_learners 0 and counts = Array.make n_learners 0 in
        let deliver ~learner ~inst:_ v =
          Option.iter
            (fun (v : Paxos.Value.t) ->
              List.iter
                (fun (it : Paxos.Value.item) ->
                  digests.(learner) <- (digests.(learner) * 1_000_003) + it.uid;
                  counts.(learner) <- counts.(learner) + 1;
                  if learner = 0 then begin
                    Abcast.Recorder.item recorder it;
                    note gaps (Simnet.now net)
                  end)
                v.items)
            v
        in
        let mr =
          Ringpaxos.Mring.create net Ringpaxos.Mring.default_config ~n_proposers:2 ~n_learners
            ~learner_parts:(fun _ -> [ 0 ]) ~deliver
        in
        Ab_sys { mr; recorder; submits = 0; digests; counts }
  in
  { engine; net; seed; sys; gaps }

(* Every process of the deployment, in pid order. *)
let procs net =
  let rec go i acc =
    match Simnet.proc_of net i with
    | p -> go (i + 1) (p :: acc)
    | exception Invalid_argument _ -> List.rev acc
  in
  go 0 []

(* A process's role is its name without the trailing index, as in the
   trace decomposition: "mr-acc2" -> "mr-acc". *)
let role p =
  let s = Simnet.proc_name p in
  let rec stem i = if i > 0 && s.[i - 1] >= '0' && s.[i - 1] <= '9' then stem (i - 1) else i in
  String.sub s 0 (stem (String.length s))

let busiest net ~role:r ~by =
  List.fold_left
    (fun best p ->
      if role p <> r then best
      else match best with Some (_, v) when v >= by p -> best | _ -> Some (p, by p))
    None (procs net)

(* The ring coordinator, found from outside: it multicasts every Phase 2A,
   so it is the acceptor that has sent the most bytes. *)
let coordinator net ~till =
  match busiest net ~role:"mr-acc" ~by:(fun p -> Sim.Stats.Rate.mbps (Simnet.sent_rate p) ~from:0.0 ~till) with
  | Some (p, _) -> p
  | None -> invalid_arg "Run.coordinator: no acceptor"

let kill_coordinator d ~at ~sampled_till =
  ignore (Sim.Engine.at d.engine ~time:at (fun () -> Simnet.kill d.net (coordinator d.net ~till:sampled_till)))

(* Arrivals at [rate] over [from, until].  Open-loop arrivals due before
   [from] are drawn and discarded, so load starts on time without a burst. *)
let start d ~rate ~from ~until =
  match d.sys with
  | Kv_sys s ->
      let wl = Kv.Ycsb.workload s.preset (Sim.Rng.create (d.seed + 1)) ~rate:(OL.Constant rate) in
      while (OL.peek wl).OL.at < from do
        ignore (OL.next wl);
        s.skipped <- s.skipped + 1
      done;
      Kv.start_open s.kv wl ~until;
      s.wl <- Some wl
  | Ab_sys s ->
      (* A constant pace, as in the paper, with arrival [k] at a seeded
         point of the [k]th interval, to a proposer the seed picks.  On an
         exact grid the completions would land on the same engine ticks and
         every seed would read the same stall to the last digit; Poisson
         arrivals would put 600 Mbps so near the knee that p999 swings by a
         tenth from seed to seed. *)
      let rng = Sim.Rng.create (d.seed + 1) in
      let period = 1.0 /. rate in
      let rec arrive k =
        let t = from +. ((float_of_int k +. Sim.Rng.float rng 1.0) *. period) in
        if t < until then
          ignore
            (Sim.Engine.at d.engine ~time:t (fun () ->
                 s.submits <- s.submits + 1;
                 ignore (Ringpaxos.Mring.submit s.mr ~proposer:(Sim.Rng.int rng 2) ~size:abcast_size Simnet.Noop);
                 arrive (k + 1)))
      in
      arrive 0

let attempted d =
  match d.sys with
  | Kv_sys { wl = Some wl; skipped; _ } -> OL.generated wl - skipped
  | Kv_sys _ -> 0
  | Ab_sys s -> s.submits

(* Latencies of completed operations, seconds, all classes merged. *)
let completed_latencies d =
  match d.sys with
  | Kv_sys s ->
      let slo = Kv.slo s.kv in
      List.concat_map
        (fun cls ->
          match Kv.Slo.latency slo cls with
          | Some l -> List.map fst (Sim.Stats.Latency.cdf l ~points:(Sim.Stats.Latency.count l))
          | None -> [])
        (Kv.Slo.classes slo)
  | Ab_sys s ->
      let n = Abcast.Recorder.items s.recorder in
      List.map (fun (ms, _) -> ms /. 1e3) (Abcast.Recorder.lat_cdf s.recorder ~points:n)

let checks d =
  match d.sys with
  | Kv_sys s ->
      let f0 = Kv.state_fingerprint_at s.kv 0 in
      let replicas = List.init Kv.default_config.n_replicas Fun.id in
      [ ("replicas_agree", List.for_all (fun r -> Kv.state_fingerprint_at s.kv r = f0) replicas) ]
  | Ab_sys s ->
      let same a = Array.for_all (fun x -> x = a.(0)) a in
      [ ("learners_agree", same s.digests && same s.counts) ]

(* --- one measured run ---------------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  lat : float array;  (** sorted, seconds; a failed operation counts as the drain length *)
  stall : float;  (** [stall] of the completion gaps after [gap_from], seconds *)
  setup_ns : int;
  run_ns : int;  (** wall time of [Sim.Engine.run] *)
  minor_words : float;
  peak_heap_words : int;  (** largest major heap sampled every 10 ms of virtual time *)
  checks : (string * bool) list;
}

let percentile o p =
  let n = Array.length o.lat in
  if n = 0 then nan else o.lat.(Stdlib.min (n - 1) (int_of_float (p *. float_of_int (n - 1))))

let fail_frac o = if o.attempted = 0 then 1.0 else float_of_int o.failed /. float_of_int o.attempted

(* Outcomes that must repeat exactly for a seed. *)
let same_virtual a b = a.attempted = b.attempted && a.failed = b.failed && a.lat = b.lat && a.stall = b.stall

(* The shape of a run: the nominal run, or a 1 s probe at another rate. *)
type shape = { rate : float; from : float; till : float; kill : (float * float) option }

let nominal (w : workload) =
  { rate = w.rate; from = 0.0; till = w.load; kill = Option.map (fun at -> (at, coord_sample)) w.kill_at }

(* Probes last 1 s.  On [failover] the coordinator dies at 0.25 s, before
   any client load, and the probe starts at 0.75 s on the recovered ring. *)
let probe (w : workload) rate =
  match w.kill_at with
  | None -> { rate; from = 0.0; till = 1.0; kill = None }
  | Some _ -> { rate; from = 0.75; till = 1.75; kill = Some (0.25, 0.25) }

(* Each run starts from an empty major heap, so its peak heap is its own.
   A compaction alone leaves the last run's deployment in the heap; the
   full major before it frees it first. *)
let run ?tracer ?kv_cfg ?(instrument = fun (_ : dep) -> ()) w ~seed shape =
  Gc.full_major ();
  Gc.compact ();
  let t0 = now_ns () in
  let d = create ?tracer ?kv_cfg w ~seed ~gaps:(gaps ~from:(Float.max gap_from shape.from) ~till:shape.till) in
  let setup_ns = now_ns () - t0 in
  instrument d;
  start d ~rate:shape.rate ~from:shape.from ~until:shape.till;
  Option.iter (fun (at, sampled_till) -> kill_coordinator d ~at ~sampled_till) shape.kill;
  let peak = ref 0 in
  let sample () = peak := Stdlib.max !peak (Gc.quick_stat ()).Gc.heap_words in
  let (_stop : unit -> unit) = Simnet.every d.net ~period:0.01 sample in
  let w0 = Gc.minor_words () in
  let t1 = now_ns () in
  Sim.Engine.run d.engine ~until:(shape.till +. drain);
  let run_ns = now_ns () - t1 in
  let minor_words = Gc.minor_words () -. w0 in
  sample ();
  let attempted = attempted d in
  let done_ = completed_latencies d in
  let failed = attempted - List.length done_ in
  let lat = Array.of_list (List.init (Stdlib.max 0 failed) (fun _ -> drain) @ done_) in
  Array.sort Float.compare lat;
  { attempted;
    failed;
    lat;
    stall = stall d.gaps;
    setup_ns;
    run_ns;
    minor_words;
    peak_heap_words = !peak;
    checks = checks d }

(* --- saturation search ------------------------------------------------------------ *)

let p99_limit = 2e-3
let fail_limit = 1e-3

(* How far a probe is from its limits: at most 1 when it passes. *)
let badness o = Float.max (percentile o 0.99 /. p99_limit) (fail_frac o /. fail_limit)
let passes o = badness o <= 1.0

type search = {
  max_rate : float;  (** where the final bracket crosses the limits *)
  pass_rate : float;  (** highest rate that passed *)
  fail_rate : float;  (** lowest rate that failed *)
  probes : (float * outcome) list;  (** in probe order *)
}

exception No_ceiling of string

(* Start at the nominal rate, double until a probe fails (halve until one
   passes if the nominal rate already fails), then bisect four times.  The
   reported rate interpolates the final bracket linearly in [badness], so
   it moves continuously with the system rather than in steps of the
   bracket width. *)
let search (w : workload) ~seed =
  let probes = ref [] in
  let at rate =
    let o = run w ~seed (probe w rate) in
    probes := (rate, o) :: !probes;
    o
  in
  let ok rate = passes (at rate) in
  let nominal = w.rate in
  let lo, hi =
    if ok nominal then begin
      let rec up lo =
        let hi = 2.0 *. lo in
        if ok hi then
          if hi >= 16.0 *. nominal then
            raise (No_ceiling (Printf.sprintf "%s: %.0f ops/s (16x nominal) still passes" w.name hi))
          else up hi
        else (lo, hi)
      in
      up nominal
    end
    else begin
      let rec down hi =
        let lo = hi /. 2.0 in
        if ok lo then (lo, hi)
        else if lo <= nominal /. 16.0 then
          raise (No_ceiling (Printf.sprintf "%s: even %.0f ops/s (nominal/16) fails" w.name lo))
        else down lo
      in
      down nominal
    end
  in
  let rec bisect lo hi k =
    if k = 0 then (lo, hi)
    else begin
      let mid = (lo +. hi) /. 2.0 in
      if ok mid then bisect mid hi (k - 1) else bisect lo mid (k - 1)
    end
  in
  let lo, hi = bisect lo hi 4 in
  let b r = badness (List.assoc r !probes) in
  let b_lo = b lo and b_hi = b hi in
  { max_rate = lo +. ((hi -. lo) *. (1.0 -. b_lo) /. (b_hi -. b_lo));
    pass_rate = lo;
    fail_rate = hi;
    probes = List.rev !probes }
