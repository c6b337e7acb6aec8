(* Sparse entries are keyed by sequence number and hold the full uid, so
   [sparse_list] hands back uids a receiver can [add] as they are. *)
type t = { mutable floor : int; sparse : (int, int) Hashtbl.t }

let create () = { floor = 1; sparse = Hashtbl.create 64 }
let floor s = s.floor
let sparse_count s = Hashtbl.length s.sparse
let sparse_list s = Hashtbl.fold (fun _ uid l -> uid :: l) s.sparse []

let mem s uid =
  let q = Paxos.Value.uid_seq uid in
  q < s.floor || Hashtbl.mem s.sparse q

(* Advance the floor over the sparse members that now sit at it. *)
let rec drain s =
  match Hashtbl.find s.sparse s.floor with
  | _ ->
      Hashtbl.remove s.sparse s.floor;
      s.floor <- s.floor + 1;
      drain s
  | exception Not_found -> ()

let add s uid =
  let q = Paxos.Value.uid_seq uid in
  if q = s.floor then begin
    s.floor <- q + 1;
    if Hashtbl.length s.sparse > 0 then drain s
  end
  else if q > s.floor then Hashtbl.replace s.sparse q uid

let raise_floor s f =
  if f > s.floor then begin
    s.floor <- f;
    Hashtbl.filter_map_inplace (fun q uid -> if q < f then None else Some uid) s.sparse;
    drain s
  end

let union ~into src =
  raise_floor into src.floor;
  Hashtbl.iter (fun _ uid -> add into uid) src.sparse

let reset s =
  s.floor <- 1;
  Hashtbl.reset s.sparse
