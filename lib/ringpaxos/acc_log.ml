(* An acceptor's per-instance log.  The counters and the done uids
   change only here, so they stay equal to a recount of the table. *)

module Uid_set = Protocol.Uid_set

type slot = {
  mutable s_rnd : int;
  mutable s_val : Paxos.Value.t;
  mutable s_parts : int list;
  mutable s_decided : bool;
  mutable s_durable : bool;
}

type t = {
  tbl : (int, slot) Hashtbl.t;  (* inst -> slot, pruned below [floor] *)
  mutable floor : int;
  done_uids : Uid_set.t;
      (* item uids of votes pruned by GC, all decided (see [prune]); an
         in-ring acceptor prunes every decided instance, so this is a
         floor plus the few uids decided ahead of an older pending one *)
  mutable vote_bytes : int;  (* sum of the voted value sizes in [tbl] *)
  mutable n_decided : int;  (* slots of [tbl] marked decided *)
}

(* Sized for one GC window of instances (≈ 1–2k under load). *)
let create () =
  { tbl = Hashtbl.create 4096; floor = 0; done_uids = Uid_set.create (); vote_bytes = 0;
    n_decided = 0 }

let no_value = Paxos.Value.skip ~vid:(-1)
let new_slot () = { s_rnd = -1; s_val = no_value; s_parts = []; s_decided = false; s_durable = false }

(* What [peek] reads for an instance the log holds nothing of; never written. *)
let empty = new_slot ()
let peek l inst = try Hashtbl.find l.tbl inst with Not_found -> empty

let slot l inst =
  match Hashtbl.find l.tbl inst with
  | s -> s
  | exception Not_found ->
      let s = new_slot () in
      Hashtbl.add l.tbl inst s;
      s

let is_decided l inst = (peek l inst).s_decided
let holds s rnd vid = s.s_rnd = rnd && s.s_val.Paxos.Value.vid = vid
let same_vote l inst rnd vid = holds (peek l inst) rnd vid

let ready l inst vid =
  let s = peek l inst in
  s.s_rnd >= 0 && s.s_val.Paxos.Value.vid = vid && s.s_durable

let durable l inst =
  let s = peek l inst in
  s == empty || s.s_durable

(* A new vote is not on disk yet, whatever the one it replaces was. *)
let set_vote l inst rnd (v : Paxos.Value.t) parts =
  let s = slot l inst in
  l.vote_bytes <- l.vote_bytes - s.s_val.size + v.size;
  s.s_rnd <- rnd;
  s.s_val <- v;
  s.s_parts <- parts;
  s.s_durable <- false

let mark_decided l inst =
  let s = slot l inst in
  if not s.s_decided then begin
    s.s_decided <- true;
    l.n_decided <- l.n_decided + 1
  end

let mark_durable l inst ~rnd ~vid =
  let s = peek l inst in
  holds s rnd vid && (s.s_durable <- true; true)

(* Callers filter the slots themselves: a filtering wrapper would be a
   closure allocated per call. *)
let fold l f acc = Hashtbl.fold f l.tbl acc
let iter l f = Hashtbl.iter f l.tbl

let absorb l ~from =
  Hashtbl.iter (fun i s -> if s.s_decided then mark_decided l i) from.tbl;
  Uid_set.union ~into:l.done_uids from.done_uids;
  l.floor <- Stdlib.max l.floor from.floor

let gc_floor l = l.floor
let done_uids l = l.done_uids

(* The GC floor only advances past applied instances, so every pruned vote
   is decided.  Its uids are kept: should this acceptor take over, they seed
   [c_seen_uids], so a proposer that missed the decision (lossy multicast)
   cannot get the same item decided under a second instance. *)
let prune l ~floor =
  l.floor <- Stdlib.max l.floor floor;
  let done_item (it : Paxos.Value.item) = Uid_set.add l.done_uids it.uid in
  Hashtbl.filter_map_inplace
    (fun i s ->
      if i < floor then begin
        List.iter done_item s.s_val.items;
        l.vote_bytes <- l.vote_bytes - s.s_val.size;
        if s.s_decided then l.n_decided <- l.n_decided - 1;
        None
      end
      else Some s)
    l.tbl

let vote_bytes l = l.vote_bytes
let mem_bytes l = l.vote_bytes + (l.n_decided * 16)

let consistent l =
  let recount size = Hashtbl.fold (fun _ s n -> n + size s) l.tbl 0 in
  l.vote_bytes = recount (fun s -> s.s_val.Paxos.Value.size)
  && l.n_decided = recount (fun s -> Bool.to_int s.s_decided)

let clear l =
  Hashtbl.reset l.tbl;
  l.vote_bytes <- 0;
  l.n_decided <- 0;
  Uid_set.reset l.done_uids
