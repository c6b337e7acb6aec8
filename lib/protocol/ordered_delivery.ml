type 'v t = {
  mutable next : int;
  mutable max_seen : int;
  tbl : (int, 'v) Hashtbl.t;
  spec : (int, unit) Hashtbl.t;
}

(* Delivery drains [tbl] as it fills, so it holds a reorder window, not a
   log: both tables start small and grow only under a backlog. *)
let create () = { next = 0; max_seen = -1; tbl = Hashtbl.create 64; spec = Hashtbl.create 64 }

let next t = t.next
let max_seen t = t.max_seen
let note_max t i = if i > t.max_seen then t.max_seen <- i
let size t = Hashtbl.length t.tbl
let has t i = Hashtbl.mem t.tbl i
let find t i = Hashtbl.find_opt t.tbl i

let offer t ~inst v =
  if inst >= t.next && not (Hashtbl.mem t.tbl inst) then begin
    Hashtbl.replace t.tbl inst v;
    note_max t inst;
    true
  end
  else false

(* Delivering an entry allocates nothing here: no [Some] from the lookup,
   no loop flag. *)
let rec pump t f =
  match Hashtbl.find t.tbl t.next with
  | v ->
      if f t.next v then begin
        Hashtbl.remove t.tbl t.next;
        Hashtbl.remove t.spec t.next;
        t.next <- t.next + 1;
        pump t f
      end
  | exception Not_found -> ()

let backlog t = Stdlib.max 0 (t.max_seen + 1 - t.next)

let missing t ?(window = 64) ?(limit = 16) ~complete () =
  let upto = Stdlib.min t.max_seen (t.next + window - 1) in
  let rec collect i acc n =
    if i > upto || n >= limit then List.rev acc
    else
      let miss =
        match Hashtbl.find_opt t.tbl i with
        | None -> true
        | Some v -> not (complete i v)
      in
      if miss then collect (i + 1) (i :: acc) (n + 1) else collect (i + 1) acc n
  in
  collect t.next [] 0

let speculate t ~inst f =
  if inst >= t.next && not (Hashtbl.mem t.spec inst) then begin
    Hashtbl.replace t.spec inst ();
    f ()
  end

let drop_below t floor =
  Hashtbl.filter_map_inplace (fun i v -> if i < floor then None else Some v) t.tbl;
  (* Speculation marks are keyed by instance too: a GC floor that outruns
     [next] (decisions delivered by other learners in the partition) would
     otherwise strand their marks forever. *)
  Hashtbl.filter_map_inplace (fun i () -> if i < floor then None else Some ()) t.spec

let fast_forward t inst =
  (* Jump the delivery cursor to [inst] without delivering the skipped
     prefix: a learner admitted by reconfiguration starts at the epoch's
     activation instance, and a catching-up acceptor skips the prefix
     already pruned by the garbage-collection floor. *)
  if inst > t.next then begin
    drop_below t inst;
    t.next <- inst;
    if t.max_seen < inst - 1 then t.max_seen <- inst - 1
  end

(* --- gap repair ---------------------------------------------------------- *)

type repair = { mutable active : bool }

let repairer () = { active = false }
let repairing r = r.active

let request_repairs r t net ~timeout ~cooldown ~alive ~complete ~send =
  let rec cycle delay =
    if not r.active && backlog t > 0 then begin
      r.active <- true;
      ignore
        (Simnet.after net delay (fun () ->
             r.active <- false;
             (* The cycle may only end when the gap has closed.  Firing
                with a transiently dead process or an empty missing window
                (e.g. every instance present but incomplete checks racing
                a retransmission) must re-arm, or a gap that opens after a
                quiescent period is never repaired. *)
             if backlog t > 0 then begin
               if alive () then begin
                 match missing t ~complete () with
                 | [] -> ()
                 | insts -> send insts
               end;
               (* Cool down before the next request. *)
               r.active <- true;
               ignore
                 (Simnet.after net cooldown (fun () ->
                      r.active <- false;
                      cycle delay))
             end))
    end
  in
  cycle timeout

(* --- delivery processing queue ------------------------------------------- *)

type ('a, 'b) sink = { q : ('a * 'b) Queue.t; mutable busy : bool; mutable draining : bool }

let sink () = { q = Queue.create (); busy = false; draining = false }
let sink_length s = Queue.length s.q
let sink_push s a b = Queue.push (a, b) s.q

(* Zero-cost entries drain in a loop, not by recursion: [deliver] commonly
   re-enters [drain_sink] (pump -> push -> drain), so the recursive form
   grew one stack frame per queued item.  The [draining] flag makes the
   re-entrant call a no-op; the outer loop picks the new items up.  The
   loop is a tail call, so a popped zero-cost entry allocates nothing. *)
let rec drain_sink s net proc ~cost deliver =
  if (not s.busy) && not s.draining then begin
    s.draining <- true;
    drain_loop s net proc ~cost deliver;
    s.draining <- false
  end

and drain_loop s net proc ~cost deliver =
  if not (Queue.is_empty s.q) then begin
    let a, b = Queue.pop s.q in
    process s net proc ~cost deliver a b
  end

(* One entry: delivered at once when it costs nothing, and the queue goes
   on; otherwise [proc] is busy for [cost ()] first. *)
and process s net proc ~cost deliver a b =
  let c = cost () in
  if c <= 0.0 then begin
    deliver a b;
    drain_loop s net proc ~cost deliver
  end
  else begin
    s.busy <- true;
    Simnet.exec net proc ~dur:c (fun () ->
        s.busy <- false;
        deliver a b;
        drain_sink s net proc ~cost deliver)
  end

(* An idle, empty sink would hand the entry straight back, so it skips the
   queue: no pair, no queue cell. *)
let sink_offer s net proc ~cost deliver a b =
  if s.busy || s.draining || not (Queue.is_empty s.q) then begin
    sink_push s a b;
    drain_sink s net proc ~cost deliver
  end
  else begin
    s.draining <- true;
    process s net proc ~cost deliver a b;
    s.draining <- false
  end
