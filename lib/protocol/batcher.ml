type 'k t = {
  queues : ('k, Paxos.Value.item Queue.t) Hashtbl.t;
  bytes : ('k, int ref) Hashtbl.t;
  mutable pending : int;
  mutable sole : 'k option;  (* the key, while exactly one key exists *)
  batch_bytes : int;
  buffer_bytes : int;
  mutable dropped : int;
  mutable armed : bool;
  mutable epoch : int;
}

let create ?(buffer_bytes = max_int) ~batch_bytes () =
  { queues = Hashtbl.create 8;
    bytes = Hashtbl.create 8;
    pending = 0;
    sole = None;
    batch_bytes;
    buffer_bytes;
    dropped = 0;
    armed = false;
    epoch = 0 }

let pending_bytes t = t.pending
let is_empty t = t.pending = 0
let drops t = t.dropped

let enqueue t ~key (item : Paxos.Value.item) =
  if t.pending + item.isize > t.buffer_bytes then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    let q =
      match Hashtbl.find t.queues key with
      | q -> q
      | exception Not_found ->
          let q = Queue.create () in
          t.sole <- (if Hashtbl.length t.queues = 0 then Some key else None);
          Hashtbl.add t.queues key q;
          Hashtbl.add t.bytes key (ref 0);
          q
    in
    Queue.push item q;
    let b = Hashtbl.find t.bytes key in
    b := !b + item.isize;
    t.pending <- t.pending + item.isize;
    true
  end

let largest t =
  Hashtbl.fold
    (fun key b acc ->
      if !b > 0 then
        match acc with
        | Some (_, best) when best >= !b -> acc
        | _ -> Some (key, !b)
      else acc)
    t.bytes None

(* A batch is ready when some key has a full packet's worth of traffic, or
   batching is disabled and anything at all is pending.  No key holds more
   than the total, so an under-full batcher answers without the fold, and
   a single-key batcher (one partition set, or a unit key) answers with
   its stored key: that key holds the whole total. *)
let ready t =
  if t.pending = 0 then None
  else if t.batch_bytes <= 0 then Option.map fst (largest t)
  else if t.pending < t.batch_bytes then None
  else if Hashtbl.length t.bytes = 1 then t.sole
  else
    Hashtbl.fold
      (fun key b acc -> if acc = None && !b >= t.batch_bytes then Some key else acc)
      t.bytes None

(* Pop items while they fit in one batch.  The first item always pops, so an
   item larger than [batch_bytes] seals alone rather than stalling the
   queue; with [batch_bytes <= 0] every batch is a single item.  The take
   conses the batch in order, so sealing allocates only its list cells. *)
let rec take t q bytes size =
  if Queue.is_empty q then []
  else
    let (it : Paxos.Value.item) = Queue.peek q in
    if size > 0 && size + it.isize > t.batch_bytes then []
    else begin
      ignore (Queue.pop q);
      bytes := !bytes - it.isize;
      t.pending <- t.pending - it.isize;
      it :: take t q bytes (size + it.isize)
    end

let seal t key =
  match Hashtbl.find t.queues key with
  | q -> take t q (Hashtbl.find t.bytes key) 0
  | exception Not_found -> []

let timer_armed t = t.armed

(* The seal timer cannot be cancelled (Simnet.after_tk returns a handle we
   deliberately drop), so each timer captures the epoch at arming time and
   fires only if no [clear] intervened; otherwise a timeout armed before a
   coordinator re-election would seal from the reset batcher.  The delay is
   armed on the tick grid: no float crosses into the engine. *)
let arm_timeout t net ~timeout f =
  if t.pending > 0 && not t.armed then begin
    t.armed <- true;
    let epoch = t.epoch in
    ignore
      (Simnet.after_tk net ~ticks:(Sim.Engine.ticks_of_duration timeout) (fun () ->
           if t.epoch = epoch then begin
             t.armed <- false;
             (match Simnet.tracer net with
             | Some tr ->
                 Trace.instant tr ~pid:(-1) ~cat:"proto" ~name:"batch-timeout"
                   ~ts:(Simnet.now net)
             | None -> ());
             f ()
           end))
  end

let clear t =
  Hashtbl.reset t.queues;
  Hashtbl.reset t.bytes;
  t.sole <- None;
  t.pending <- 0;
  t.armed <- false;
  t.epoch <- t.epoch + 1
