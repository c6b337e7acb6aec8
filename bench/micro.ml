(* Bechamel micro-benchmarks of the core data structures and a full
   simulated consensus instance. *)

open Bechamel
open Toolkit

let btree_insert =
  Test.make ~name:"btree.insert(seq)"
    (Staged.stage (fun () ->
         let t = Btree.create () in
         for i = 1 to 1000 do
           ignore (Btree.insert t i i)
         done))

let btree_mixed =
  Test.make ~name:"btree.insert+delete"
    (Staged.stage (fun () ->
         let t = Btree.create ~order:16 () in
         for i = 1 to 500 do
           ignore (Btree.insert t (i * 7 mod 997) i)
         done;
         for i = 1 to 500 do
           ignore (Btree.delete t (i * 13 mod 997))
         done))

let btree_range =
  let t = Btree.create () in
  let () =
    for i = 1 to 100_000 do
      ignore (Btree.insert t i i)
    done
  in
  Test.make ~name:"btree.range(1000 keys)"
    (Staged.stage (fun () -> ignore (Btree.range_count t ~lo:40_000 ~hi:41_000)))

let rng_draws =
  let r = Sim.Rng.create 1 in
  Test.make ~name:"rng.int(1000 draws)"
    (Staged.stage (fun () ->
         for _ = 1 to 1000 do
           ignore (Sim.Rng.int r 1_000_000)
         done))

let zipf_draws =
  let r = Sim.Rng.create 2 in
  let z = Sim.Rng.Zipf.create r ~n:10_000 ~s:1.0 in
  Test.make ~name:"rng.zipf(1000 draws)"
    (Staged.stage (fun () ->
         for _ = 1 to 1000 do
           ignore (Sim.Rng.Zipf.draw z)
         done))

type Simnet.payload += MicroCmd

let consensus_instance =
  Test.make ~name:"mring.one consensus instance (simulated)"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         let net = Simnet.create engine (Sim.Rng.create 3) in
         let delivered = ref 0 in
         let mr =
           Ringpaxos.Mring.create net Ringpaxos.Mring.default_config ~n_proposers:1
             ~n_learners:1
             ~learner_parts:(fun _ -> [ 0 ])
             ~deliver:(fun ~learner:_ ~inst:_ _ -> incr delivered)
         in
         ignore (Ringpaxos.Mring.submit mr ~proposer:0 ~size:1024 MicroCmd);
         Sim.Engine.run engine ~until:0.05))

let lin_check =
  let history =
    List.init 8 (fun i ->
        { Smr.Linearizability.kind = (if i mod 2 = 0 then `Write i else `Read (Some (i - 1)));
          inv = float_of_int i;
          res = float_of_int i +. 0.5 })
  in
  Test.make ~name:"linearizability.check(8 ops)"
    (Staged.stage (fun () -> ignore (Smr.Linearizability.check ~init:None history)))

let benchmarks =
  Test.make_grouped ~name:"micro"
    [ btree_insert; btree_mixed; btree_range; rng_draws; zipf_draws;
      consensus_instance; lin_check ]

let run () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances benchmarks in
  let results =
    List.map (fun inst -> Analyze.all (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]) inst raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]) instances results in
  Util.header "Micro-benchmarks (bechamel, monotonic clock, ns/run)";
  Hashtbl.iter
    (fun name tbl ->
      ignore name;
      Hashtbl.iter
        (fun test result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-44s %12.1f ns\n" test est
          | _ -> Printf.printf "%-44s %12s\n" test "-")
        tbl)
    results
