type rule = {
  mutable active : bool;
  decide : Sim.Rng.t -> Simnet.msg -> dst:Simnet.proc -> Simnet.fault;
}

type t = {
  net : Simnet.t;
  dice : Sim.Rng.t;
  sched : Sim.Rng.t;
  (* Keyed by packed (src, dst) pid pair — 20 bits each, matching the
     simnet pid space — so the per-message cut lookup in [tap] hashes an
     immediate int instead of allocating a tuple. *)
  cuts : (int, int) Hashtbl.t;
  mutable rules : rule list;
  mutable log : (float * string) list;
  mutable r_drops : int;
  heal_by : float;  (* no heal, stop or restore is scheduled later *)
}

let cut_key src dst = (src lsl 20) lor (dst land 0xFFFFF)

let note t label = t.log <- (Simnet.now t.net, label) :: t.log
let events t = List.rev t.log
let sched_rng t = t.sched
let drops t = t.r_drops

(* The tap rules on every (message, destination) pair.  A severed link
   wins over everything; otherwise the first active matching rule
   decides.  All dice come from [t.dice], never from the network's rng,
   so installing an injector does not perturb the simulation's own
   random sequence. *)
let tap t (m : Simnet.msg) ~dst =
  if Hashtbl.mem t.cuts (cut_key m.src (Simnet.pid dst)) then begin
    t.r_drops <- t.r_drops + 1;
    Simnet.Drop
  end
  else
    let rec first = function
      | [] -> Simnet.Deliver
      | r :: rest ->
          if r.active then
            match r.decide t.dice m ~dst with
            | Simnet.Deliver -> first rest
            | f ->
                (match f with Simnet.Drop -> t.r_drops <- t.r_drops + 1 | _ -> ());
                f
          else first rest
    in
    first t.rules

let create ?(heal_by = infinity) net ~seed =
  let root = Sim.Rng.create seed in
  let t =
    { net;
      dice = Sim.Rng.split root;
      sched = Sim.Rng.split root;
      cuts = Hashtbl.create 64;
      rules = [];
      log = [];
      r_drops = 0;
      heal_by }
  in
  Simnet.set_fault_tap net (Some (fun m ~dst -> tap t m ~dst));
  t

(* Every fault passes through here: [label] reaches the event log when
   the action fires. *)
let at t time label f =
  ignore
    (Sim.Engine.at (Simnet.engine t.net) ~time (fun () ->
         note t label;
         f ()))

let heal_at t time label f = at t (Float.min time t.heal_by) label f

(* --- link cuts ----------------------------------------------------------- *)

(* Directed cuts are reference counted, so overlapping partitions
   compose. *)
let cut t src dst =
  let k = cut_key src dst in
  let n = match Hashtbl.find_opt t.cuts k with Some n -> n | None -> 0 in
  Hashtbl.replace t.cuts k (n + 1)

let heal t src dst =
  let k = cut_key src dst in
  match Hashtbl.find_opt t.cuts k with
  | Some n when n > 1 -> Hashtbl.replace t.cuts k (n - 1)
  | Some _ -> Hashtbl.remove t.cuts k
  | None -> ()

let partition t ~at:t0 ~dur ~group_a ~group_b label =
  let each f =
    List.iter (fun a -> List.iter (fun b -> f a b; f b a) group_b) group_a
  in
  at t t0 (Printf.sprintf "partition(%s)" label) (fun () -> each (cut t));
  heal_at t (t0 +. dur) (Printf.sprintf "heal(%s)" label) (fun () -> each (heal t))

(* --- windowed rules ------------------------------------------------------ *)

let add_window t ~at:t0 ~dur label decide =
  let r = { active = false; decide } in
  t.rules <- t.rules @ [ r ];
  at t t0 (Printf.sprintf "start(%s)" label) (fun () -> r.active <- true);
  heal_at t (t0 +. dur) (Printf.sprintf "stop(%s)" label) (fun () -> r.active <- false)

let rule t ~at ~dur ?(drop = 0.0) ?(dup = 0.0) ?(jitter = 0.0) ~applies label =
  add_window t ~at ~dur label (fun dice m ~dst ->
      if not (applies m ~dst) then Simnet.Deliver
      else if drop > 0.0 && Sim.Rng.bool dice drop then Simnet.Drop
      else if dup > 0.0 && Sim.Rng.bool dice dup then
        Simnet.Duplicate (Sim.Rng.float dice (Float.max 1.0e-6 jitter))
      else if jitter > 0.0 then Simnet.Delay (Sim.Rng.float dice jitter)
      else Simnet.Deliver)

let custom t ~at ~dur ~decide label =
  add_window t ~at ~dur label (fun _dice m ~dst -> decide m ~dst)

(* --- slow-CPU episodes --------------------------------------------------- *)

let slow_cpu t ~at:t0 ~dur ~factor node =
  let name = Simnet.node_name node in
  at t t0 (Printf.sprintf "slow_cpu(%s,x%.1f)" name factor) (fun () ->
      let old = Simnet.node_cpu_factor node in
      Simnet.set_cpu_factor node (old *. factor);
      heal_at t (Simnet.now t.net +. dur) (Printf.sprintf "cpu_restore(%s)" name) (fun () ->
          Simnet.set_cpu_factor node old))
