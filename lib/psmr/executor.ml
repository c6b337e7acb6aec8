(* Dependency-aware parallel executor over the btree service.

   Each decided command declares the key ranges it reads and writes
   (Btree.Keyset).  A dependency tracker keeps the commands whose simulated
   execution or commit is still in flight; a new command is dispatched to
   one of [n_workers] simulated worker threads as soon as its conflicting
   predecessors have finished — there is no all-workers barrier.

   Two modes ("Rethinking State-Machine Replication for Parallelism",
   arXiv 1311.6183, and "Optimistic Parallel State-Machine Replication",
   arXiv 1404.6721):

   - [Pessimistic]: a command waits for every conflicting predecessor to
     finish before it starts, so conflicting commands never overlap and
     independent commands run on any free worker.

   - [Optimistic]: a command starts speculatively on the first free worker.
     At commit (commits happen in log order) the tracker checks whether a
     predecessor whose writes intersect this command's reads was still
     executing when the command started — if so the speculative execution
     read stale state: the command's writes are undone, a rollback cost is
     charged, and the command re-executes once the conflicting predecessors
     have finished.  Re-execution can itself detect a later conflict, so
     the check loops until the command ran against settled state.

   State is applied to the underlying service in log order (submissions are
   ordered), so every replica running the same stream holds an identical
   tree; the speculative timing model charges the extra work rollbacks
   cause without perturbing determinism.  A rolled-back command's writes
   are undone before anything else executes, so they are never observable
   (see CORRECTNESS.md).

   A read-only command served outside the log (a lease read) goes through
   [read]: it has no log position and so no commit; it waits only for
   in-flight writes it overlaps, occupies a worker like any command, and
   joins the active set so that a later overlapping write waits for it.

   Per-stage spans — queue (dependency wait), dispatch (worker wait),
   execute, rollback, commit (in-order commit wait) — feed the lib/trace
   latency decomposition when a tracer is installed.  [read] emits none:
   its caller owns its spans, so these stages describe ordered commands
   only. *)

type mode = Pessimistic | Optimistic

type report = {
  r_ready : float;  (** dependencies settled (pessimistic) / submit time *)
  r_start : float;  (** first speculative execution start *)
  r_fin : float;  (** final execution finish (after any re-executions) *)
  r_commit : float;  (** in-order commit time *)
  r_rollbacks : int;  (** re-executions this command needed *)
}

(* The float scalars live in [fl] rather than in mutable record fields: in
   a mixed record every write to a mutable float field boxes, and [submit]
   writes several per command.  Slots: the latest submission time seen,
   the latest commit, the current command's ready/start/fin, and the
   latest [read]'s start/fin. *)
let clock_i = 0
let commit_i = 1
let ready_i = 2
let start_i = 3
let fin_i = 4
let read_start_i = 5
let read_fin_i = 6

type t = {
  mode : mode;
  service : Smr.Service.t;
  workers : float array;  (* per-worker next-free time *)
  busy : Sim.Stats.Busy.t;
  tracer : Trace.t option;
  pid : int;
  fl : float array;
  (* The active set — commands whose execution may still be in flight —
     as parallel arrays: entry [k < n_active] read [reads.(k)], wrote
     [writes.(k)] and finished executing at [fin.(k)]. *)
  mutable reads : Btree.Keyset.t array;
  mutable writes : Btree.Keyset.t array;
  mutable fin : float array;
  mutable n_active : int;
  mutable executed : int;
  mutable rollbacks : int;
  mutable conflicts : int;
  mutable last_rollbacks : int;
}

let create ?tracer ?(pid = -1) ~mode ~n_workers service =
  let cap = 16 in
  { mode;
    service;
    workers = Array.make (Stdlib.max 1 n_workers) 0.0;
    busy = Sim.Stats.Busy.create ();
    tracer;
    pid;
    fl = Array.make 7 0.0;
    reads = Array.make cap Btree.Keyset.empty;
    writes = Array.make cap Btree.Keyset.empty;
    fin = Array.make cap 0.0;
    n_active = 0;
    executed = 0;
    rollbacks = 0;
    conflicts = 0;
    last_rollbacks = 0 }

(* Monomorphic float [max]/[min] with [Stdlib]'s tie rule: the polymorphic
   ones box both arguments on every call. *)
let fmax (a : float) b = if a >= b then a else b [@@inline]
let fmin (a : float) b = if a <= b then a else b [@@inline]

(* Callers build span arguments only when a tracer is installed. *)
let span t tr ~id ~cat ~name ~ts ~dur =
  if dur > 0.0 then Trace.span tr ~id ~pid:t.pid ~cat ~name ~ts ~dur

let argmin_free t =
  let w = ref 0 in
  for i = 1 to Array.length t.workers - 1 do
    if t.workers.(i) < t.workers.(!w) then w := i
  done;
  !w

(* An active entry can no longer delay anyone once its execution finished
   before every worker is free again: any later submission starts at or
   after [max clock min_free], so entries below that watermark are dead.
   Survivors are compacted to the front in place, keeping their order;
   vacated key-set slots are cleared so they retain nothing.  The
   minimum is computed inline: a float returned from a function boxes. *)
let prune t =
  let min_free = ref t.workers.(0) in
  for i = 1 to Array.length t.workers - 1 do
    min_free := fmin !min_free t.workers.(i)
  done;
  let wm = fmax t.fl.(clock_i) !min_free in
  let n = t.n_active in
  let live = ref 0 in
  for k = 0 to n - 1 do
    let f = t.fin.(k) in
    if f > wm then begin
      let j = !live in
      if j < k then begin
        t.reads.(j) <- t.reads.(k);
        t.writes.(j) <- t.writes.(k);
        t.fin.(j) <- f
      end;
      live := j + 1
    end
  done;
  for k = !live to n - 1 do
    t.reads.(k) <- Btree.Keyset.empty;
    t.writes.(k) <- Btree.Keyset.empty
  done;
  t.n_active <- !live

(* Enter a command that finishes at [fl.(fin_slot)] into the active set. *)
let push_active t ~reads ~writes fin_slot =
  let k = t.n_active in
  if k = Array.length t.fin then begin
    let grow a x =
      let a' = Array.make (2 * k) x in
      Array.blit a 0 a' 0 k;
      a'
    in
    t.reads <- grow t.reads Btree.Keyset.empty;
    t.writes <- grow t.writes Btree.Keyset.empty;
    t.fin <- grow t.fin 0.0
  end;
  t.reads.(k) <- reads;
  t.writes.(k) <- writes;
  t.fin.(k) <- t.fl.(fin_slot);
  t.n_active <- k + 1

(* In-order commit of the command that finished at [fl.(fin_i)]. *)
let commit_in_order t = t.fl.(commit_i) <- fmax t.fl.(fin_i) t.fl.(commit_i)

let submit_pessimistic t ~uid ~reads ~writes op =
  (* Dispatch once every conflicting predecessor has finished. *)
  let now = t.fl.(clock_i) in
  let ready = ref now in
  for k = 0 to t.n_active - 1 do
    let f = t.fin.(k) in
    if f > !ready
       && Btree.Keyset.conflict ~r1:reads ~w1:writes ~r2:t.reads.(k)
            ~w2:t.writes.(k)
    then ready := f
  done;
  let ready = !ready in
  let w = argmin_free t in
  let start = fmax ready t.workers.(w) in
  let o = t.service.execute op in
  let fin = start +. o.cost in
  t.workers.(w) <- fin;
  Sim.Stats.Busy.add_at t.busy ~now:start o.cost;
  t.fl.(ready_i) <- ready;
  t.fl.(start_i) <- start;
  t.fl.(fin_i) <- fin;
  commit_in_order t;
  t.last_rollbacks <- 0;
  match t.tracer with
  | None -> ()
  | Some tr ->
      let commit = t.fl.(commit_i) in
      span t tr ~id:uid ~cat:"queue" ~name:"dep-wait" ~ts:now ~dur:(ready -. now);
      span t tr ~id:uid ~cat:"dispatch" ~name:"worker-wait" ~ts:ready
        ~dur:(start -. ready);
      span t tr ~id:uid ~cat:"execute" ~name:"execute" ~ts:start ~dur:o.cost;
      span t tr ~id:uid ~cat:"commit" ~name:"commit-wait" ~ts:fin ~dur:(commit -. fin)

(* Execute speculatively on the first free worker; validate at commit and
   roll back if a conflicting predecessor was still running when we
   started.  Re-execution can detect a later conflict, so the check loops
   until the command ran against settled state. *)
let submit_optimistic t ~uid ~reads op =
  let now = t.fl.(clock_i) in
  let w = argmin_free t in
  let start0 = fmax now t.workers.(w) in
  let rb = t.service.rollback_cost in
  let o0 = t.service.execute op in
  Sim.Stats.Busy.add_at t.busy ~now:start0 o0.cost;
  (match t.tracer with
  | None -> ()
  | Some tr ->
      span t tr ~id:uid ~cat:"dispatch" ~name:"worker-wait" ~ts:now ~dur:(start0 -. now);
      span t tr ~id:uid ~cat:"execute" ~name:"execute" ~ts:start0 ~dur:o0.cost);
  t.fl.(start_i) <- start0;
  t.fl.(fin_i) <- start0 +. o0.cost;
  let o = ref o0 and n_roll = ref 0 and retry = ref true in
  while !retry do
    let start = t.fl.(start_i) in
    (* Latest finish among predecessors whose writes this execution may
       have read before they were done (0 if none). *)
    let stale = ref false and latest = ref 0.0 in
    for k = 0 to t.n_active - 1 do
      let f = t.fin.(k) in
      if f > start && Btree.Keyset.overlaps t.writes.(k) reads then begin
        stale := true;
        latest := fmax !latest f
      end
    done;
    if not !stale then retry := false
    else begin
      let fin = t.fl.(fin_i) in
      t.conflicts <- t.conflicts + 1;
      t.rollbacks <- t.rollbacks + 1;
      (match !o.undo with Some u -> u () | None -> ());
      Sim.Stats.Busy.add_at t.busy ~now:fin rb;
      let start' = fmax !latest (fin +. rb) in
      let o' = t.service.execute op in
      Sim.Stats.Busy.add_at t.busy ~now:start' o'.cost;
      (match t.tracer with
      | None -> ()
      | Some tr ->
          span t tr ~id:uid ~cat:"rollback" ~name:"rollback" ~ts:fin ~dur:rb;
          span t tr ~id:uid ~cat:"execute" ~name:"re-execute" ~ts:start' ~dur:o'.cost);
      t.fl.(start_i) <- start';
      t.fl.(fin_i) <- start' +. o'.cost;
      o := o';
      incr n_roll
    end
  done;
  let fin = t.fl.(fin_i) in
  t.workers.(w) <- fin;
  t.fl.(ready_i) <- now;
  t.fl.(start_i) <- start0;
  commit_in_order t;
  t.last_rollbacks <- !n_roll;
  match t.tracer with
  | None -> ()
  | Some tr ->
      span t tr ~id:uid ~cat:"commit" ~name:"commit-wait" ~ts:fin
        ~dur:(t.fl.(commit_i) -. fin)

let submit t ~now ~uid ~reads ~writes op =
  t.fl.(clock_i) <- fmax t.fl.(clock_i) now;
  prune t;
  (match t.mode with
  | Pessimistic -> submit_pessimistic t ~uid ~reads ~writes op
  | Optimistic -> submit_optimistic t ~uid ~reads op);
  t.executed <- t.executed + 1;
  push_active t ~reads ~writes fin_i

(* Wait for every in-flight write the read overlaps, then take the first
   free worker.  Nothing commits, so the ordered command's timeline
   ([ready]/[start]/[fin]/[commit] slots, [executed], [last_rollbacks])
   is left as it was. *)
let read t ~now ~reads ~cost =
  let now = fmax t.fl.(clock_i) now in
  t.fl.(clock_i) <- now;
  prune t;
  let ready = ref now in
  for k = 0 to t.n_active - 1 do
    let f = t.fin.(k) in
    if f > !ready && Btree.Keyset.overlaps t.writes.(k) reads then ready := f
  done;
  let w = argmin_free t in
  let start = fmax !ready t.workers.(w) in
  let fin = start +. cost in
  t.workers.(w) <- fin;
  Sim.Stats.Busy.add_at t.busy ~now:start cost;
  t.fl.(read_start_i) <- start;
  t.fl.(read_fin_i) <- fin;
  push_active t ~reads ~writes:Btree.Keyset.empty read_fin_i

let last_read_start t = t.fl.(read_start_i)
let last_read_fin t = t.fl.(read_fin_i)

let last_report t =
  { r_ready = t.fl.(ready_i);
    r_start = t.fl.(start_i);
    r_fin = t.fl.(fin_i);
    r_commit = t.fl.(commit_i);
    r_rollbacks = t.last_rollbacks }

let executed t = t.executed
let rollbacks t = t.rollbacks
let last_rollbacks t = t.last_rollbacks
let conflicts t = t.conflicts
let last_commit t = t.fl.(commit_i)
let n_workers t = Array.length t.workers
let inflight t = t.n_active

let utilization t ~from ~till =
  Sim.Stats.Busy.utilization t.busy ~from ~till
  /. float_of_int (Array.length t.workers)
