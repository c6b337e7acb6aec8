type Simnet.payload +=
  | CsRequest of { uid : int; client : int; op : Simnet.payload; born : float }
  | CsResp of { uid : int; born : float }

type t = {
  net : Simnet.t;
  service : Service.t;
  server : Simnet.proc;
  clients : Simnet.proc array;
  threads : float array;  (* per-executor-thread next-free time *)
  busy : Sim.Stats.Busy.t;
  gen : int -> Workload.command;
  metrics : Metrics.t;
  mutable next_uid : int;
}

let hdr = 64

(* Dispatch to the executor thread that frees up first. *)
let book t cost =
  let now = Simnet.now t.net in
  let best = ref 0 in
  Array.iteri (fun i free -> if free < t.threads.(!best) then best := i) t.threads;
  let start = Stdlib.max now t.threads.(!best) in
  let fin = start +. cost in
  t.threads.(!best) <- fin;
  Sim.Stats.Busy.add_at t.busy ~now:start cost;
  fin

let rec submit_next t client_idx =
  let cmd = t.gen client_idx in
  t.next_uid <- t.next_uid + 1;
  Simnet.send t.net ~src:t.clients.(client_idx) ~dst:t.server ~size:(cmd.size + hdr)
    (CsRequest { uid = t.next_uid; client = client_idx; op = cmd.op; born = Simnet.now t.net })

and server_handler t (m : Simnet.msg) =
  match m.payload with
  | CsRequest { uid; client; op; born } ->
      let o = t.service.execute op in
      let fin = book t o.cost in
      ignore
        (Sim.Engine.at (Simnet.engine t.net) ~time:fin (fun () ->
             Simnet.send t.net ~src:t.server ~dst:t.clients.(client) ~size:o.resp_size
               (CsResp { uid; born })))
  | _ -> ()

and client_handler t idx (m : Simnet.msg) =
  match m.payload with
  | CsResp { uid = _; born } ->
      Metrics.command t.metrics ~born ~bytes:m.size;
      submit_next t idx
  | _ -> ()

let create net ~n_threads ~service ~n_clients ~gen =
  let snode = Simnet.add_node net "cs-server" in
  let server = Simnet.add_proc net snode "cs-server" in
  let clients =
    Array.init n_clients (fun i ->
        let n = Simnet.add_node net (Printf.sprintf "cs-client%d" i) in
        Simnet.add_proc net n (Printf.sprintf "cs-client%d" i))
  in
  let t =
    { net;
      service;
      server;
      clients;
      threads = Array.make (Stdlib.max 1 n_threads) 0.0;
      busy = Sim.Stats.Busy.create ();
      gen;
      metrics = Metrics.create (Simnet.engine net);
      next_uid = 0 }
  in
  Simnet.set_handler server (server_handler t);
  Array.iteri (fun i p -> Simnet.set_handler p (client_handler t i)) clients;
  t

let start t =
  Array.iteri
    (fun i _ ->
      ignore (Simnet.after t.net (0.001 +. (1.0e-5 *. float_of_int i)) (fun () -> submit_next t i)))
    t.clients

let metrics t = t.metrics
