(* Quickstart: a fault-tolerant key-value store replicated with
   Multi-Ring Paxos, in a few lines.

     dune exec examples/quickstart.exe

   The store survives the crash of its coordinator: the demo kills it
   mid-run and keeps serving. *)

let show = function Some v -> string_of_int v | None -> "none"

let () =
  let env = Hpsmr.Env.create ~seed:42 () in
  let kv = Hpsmr.Kv.create env.net Hpsmr.Kv.default_config ~n_clients:1 in

  (* Write 1..100, then read a key back. *)
  let writes_done = ref 0 in
  for i = 1 to 100 do
    Hpsmr.Kv.put kv ~key:i ~value:(i * i) ~k:(fun _ -> incr writes_done)
  done;
  Hpsmr.Env.run env ~for_:0.5;
  Printf.printf "after 0.5 s: %d/100 writes acknowledged\n" !writes_done;

  Hpsmr.Kv.get kv ~key:7 ~k:(fun v -> Printf.printf "get 7 -> %s\n" (show v));
  Hpsmr.Env.run env ~for_:0.1;

  (* Crash the Ring Paxos coordinator; a spare acceptor takes over. *)
  Printf.printf "killing the coordinator...\n";
  Hpsmr.Kv.kill_coordinator kv;
  Hpsmr.Env.run env ~for_:0.1;

  for i = 101 to 150 do
    Hpsmr.Kv.put kv ~key:i ~value:i ~k:(fun _ -> incr writes_done)
  done;
  Hpsmr.Env.run env ~for_:2.0;
  Printf.printf "after the fault window: %d/150 writes acknowledged\n" !writes_done;

  Hpsmr.Kv.get kv ~key:150 ~k:(fun v -> Printf.printf "get 150 -> %s\n" (show v));
  Hpsmr.Env.run env ~for_:0.2;
  print_endline "quickstart done"
