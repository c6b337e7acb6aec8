(* The Chapter 4 scenario: a B+-tree service replicated with M-Ring Paxos,
   comparing plain SMR, speculative execution and state partitioning on the
   same workload.

     dune exec examples/replicated_btree.exe *)

module W = Hpsmr.Smr.Workload
module BS = Hpsmr.Smr.Btree_service

let key_range = 50_000

let dense_service ~n_parts p =
  let bs = BS.create () in
  let plo = (p * (key_range + 1) / n_parts) + if p = 0 then 1 else 0 in
  let phi = ((p + 1) * (key_range + 1) / n_parts) - 1 in
  for k = max 1 plo to phi do
    ignore (Hpsmr.Btree.insert bs.tree k k)
  done;
  bs

let run ~name ~partitions ~speculative =
  let env = Hpsmr.Env.create ~seed:9 () in
  let replicas = 2 in
  let services =
    Array.init (partitions * replicas) (fun l ->
        dense_service ~n_parts:partitions (l / replicas))
  in
  let wl =
    W.create ~cross_pct:20 ~query_span:500 (Hpsmr.Sim.Rng.create 5) W.Queries ~key_range
      ~n_partitions:partitions
  in
  let cfg =
    { Hpsmr.Smr.System.mring = { Hpsmr.Ringpaxos.Mring.default_config with partitions };
      replicas_per_partition = replicas;
      speculative }
  in
  let sys =
    Hpsmr.Smr.System.create env.net cfg
      ~services:(fun l -> services.(l).service)
      ~n_clients:150
      ~gen:(fun _ -> W.next wl)
  in
  Hpsmr.Smr.System.start sys;
  Hpsmr.Env.run env ~for_:2.0;
  let m = Hpsmr.Smr.System.metrics sys in
  Printf.printf "%-28s %8.1f kcps %8.2f ms  (replica state fingerprints %s)\n" name
    (Hpsmr.Smr.Metrics.kcps m ~from:0.7 ~till:2.0)
    (Hpsmr.Smr.Metrics.lat_mean_ms m)
    (if
       Array.for_all
         (fun s -> BS.fingerprint s = BS.fingerprint services.(0))
         (Array.sub services 0 replicas)
     then "agree"
     else "DISAGREE!")

let () =
  print_endline "Replicated B+-tree, range-query workload, 150 clients:";
  run ~name:"plain SMR (1 partition)" ~partitions:1 ~speculative:false;
  run ~name:"speculative SMR" ~partitions:1 ~speculative:true;
  run ~name:"partitioned SMR (2 parts)" ~partitions:2 ~speculative:false;
  run ~name:"speculation + partitioning" ~partitions:2 ~speculative:true
