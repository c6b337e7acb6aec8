(* `-- soak`: a long YCSB-A run on the replicated KV service, 10^6
   operations at 48k ops/s with the lease tier on (seed 7, four clients,
   as bench/stack's ycsb-a).  At each quarter of the run it collects the
   major heap fully and reads the live words.  Between the first and the
   last quarter the live heap may grow at most [max_words_per_op] words
   per operation: state kept per operation for the whole run (dedup
   tables, answered-uid sets) shows up as steady growth, and the command
   exits 1.  Uid tables that kept every decided uid read 24 words per
   operation here; the latency samples the SLO meter keeps for the whole
   run (1–2 words each) are the main remaining growth. *)

let ops = 1_000_000
let rate = 48_000.0
let max_words_per_op = 3.0

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let run () =
  Util.header
    (Printf.sprintf "Soak: YCSB-A, %d operations at %.0f ops/s, leases on" ops rate);
  let engine = Sim.Engine.create () in
  let net = Simnet.create engine (Sim.Rng.create 7) in
  let kv = Kv.create net Kv.default_config ~n_clients:4 in
  let wl =
    Kv.Ycsb.workload Kv.Ycsb.A (Sim.Rng.create 8)
      ~rate:(Smr.Workload.Open_loop.Constant rate)
  in
  let until = float_of_int ops /. rate in
  Kv.start_open kv wl ~until;
  Printf.printf "%8s %10s %12s %12s\n" "at (s)" "ops" "live words" "words/op";
  let samples =
    List.map
      (fun q ->
        let at = until *. float_of_int q /. 4.0 in
        Sim.Engine.run engine ~until:at;
        let n = Smr.Workload.Open_loop.generated wl and w = live_words () in
        Printf.printf "%8.2f %10d %12d %12.2f\n%!" at n w (float_of_int w /. float_of_int n);
        (n, w))
      [ 1; 2; 3; 4 ]
  in
  let n1, w1 = List.hd samples and n4, w4 = List.nth samples 3 in
  let growth = float_of_int (w4 - w1) /. float_of_int (n4 - n1) in
  Printf.printf "growth from the first to the last quarter: %.2f words/op (limit %.1f)\n" growth
    max_words_per_op;
  let answered = List.fold_left (fun a (r : Kv.Slo.row) -> a + r.count) 0 (Kv.Slo.rows (Kv.slo kv)) in
  Printf.printf "answered: %d, drops: %d\n%!" answered (Kv.drops kv);
  if growth > max_words_per_op then begin
    Printf.printf "soak: FAIL, the live heap grows with the run\n%!";
    exit 1
  end
  else Printf.printf "soak: ok\n%!"
