type t = { r_name : string; r_stop : unit -> unit }

let every ?counters net ~name ~period f =
  let tick =
    match counters with
    | None -> f
    | Some c ->
        let key = name ^ "_tick" in
        fun () ->
          Counters.incr c key;
          f ()
  in
  let tick () =
    (match Simnet.tracer net with
    | Some tr -> Trace.instant tr ~pid:(-1) ~cat:"timer" ~name ~ts:(Simnet.now net)
    | None -> ());
    tick ()
  in
  { r_name = name; r_stop = Simnet.every_tk net ~ticks:(Sim.Engine.ticks_of_duration period) tick }

let name t = t.r_name
let stop t = t.r_stop ()

(* Deadline stamps are engine ticks (int), not floats, and callers pass
   them as ticks ([Simnet.now_tk]): a float crossing the module boundary
   would box on every watched instance.  Payload and stamp share one
   entry, so each item costs one table slot. *)
type 'v entry = { v : 'v; mutable last : int }
type ('k, 'v) tracker = ('k, 'v entry) Hashtbl.t

let tracker () = Hashtbl.create 256

let watch tr ~now_tk key v = Hashtbl.replace tr key { v; last = now_tk }

let touch tr ~now_tk key =
  match Hashtbl.find tr key with
  | e -> e.last <- now_tk
  | exception Not_found -> ()

(* [find] and [ack] build no option: they run once per decided instance. *)
let find tr key = (Hashtbl.find tr key).v

let ack tr key =
  match Hashtbl.find tr key with
  | _ ->
      Hashtbl.remove tr key;
      true
  | exception Not_found -> false

let mem tr key = Hashtbl.mem tr key
let length tr = Hashtbl.length tr
let iter tr f = Hashtbl.iter (fun key e -> f key e.v) tr
let clear tr = Hashtbl.reset tr

(* Collect the due set before firing callbacks: [f] routinely acks or
   re-watches entries, and mutating the table while iterating over it is
   unspecified behaviour per the Hashtbl contract.  An entry acked by an
   earlier callback in the same sweep must not fire. *)
let iter_due tr ~now_tk ~older_than f =
  let older_tk = Sim.Engine.ticks_of_duration older_than in
  let due =
    Hashtbl.fold
      (fun key e acc -> if now_tk - e.last > older_tk then (key, e.v) :: acc else acc)
      tr []
  in
  List.iter
    (fun (key, v) ->
      match Hashtbl.find tr key with
      | e ->
          e.last <- now_tk;
          f key v
      | exception Not_found -> ())
    due
