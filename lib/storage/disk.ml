type config = { bandwidth : float; setup : float; write_unit : int }

let default_config = { bandwidth = 270.0e6; setup = 8.0e-5; write_unit = 32 * 1024 }

type t = {
  engine : Sim.Engine.t;
  cfg : config;
  name : string;
  mutable free_at : float;
  busy : Sim.Stats.Busy.t;
  mutable written : int;
  (* Group commit: writes arriving while the head is busy are coalesced
     into one device operation (the paper writes in 32 KB units). *)
  queue : (int * (unit -> unit) option) Queue.t;
  mutable pumping : bool;
}

let create ?(config = default_config) engine name =
  { engine;
    cfg = config;
    name;
    free_at = 0.0;
    busy = Sim.Stats.Busy.create ();
    written = 0;
    queue = Queue.create ();
    pumping = false }

let config t = t.cfg

let round_up t bytes =
  let u = t.cfg.write_unit in
  (bytes + u - 1) / u * u

let rec pump t =
  if (not t.pumping) && not (Queue.is_empty t.queue) then begin
    t.pumping <- true;
    (* Take everything pending as one device write. *)
    let bytes = ref 0 and callbacks = ref [] in
    while not (Queue.is_empty t.queue) do
      let b, k = Queue.pop t.queue in
      bytes := !bytes + b;
      match k with Some k -> callbacks := k :: !callbacks | None -> ()
    done;
    let bytes = round_up t !bytes in
    let dur = t.cfg.setup +. (float_of_int bytes *. 8.0 /. t.cfg.bandwidth) in
    let now = Sim.Engine.now t.engine in
    let start = if now > t.free_at then now else t.free_at in
    let finish = start +. dur in
    t.free_at <- finish;
    Sim.Stats.Busy.add_at t.busy ~now:start dur;
    t.written <- t.written + bytes;
    let ks = List.rev !callbacks in
    ignore
      (Sim.Engine.at t.engine ~time:finish (fun () ->
           List.iter (fun k -> k ()) ks;
           t.pumping <- false;
           pump t))
  end

let write_sync t ~bytes k =
  Queue.push (bytes, Some k) t.queue;
  pump t

let write_async t ~bytes =
  Queue.push (bytes, None) t.queue;
  pump t

let written t = t.written

let backlog t ~now = if t.free_at > now then t.free_at -. now else 0.0

let busy t = t.busy
