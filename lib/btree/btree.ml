type leaf = {
  mutable lkeys : int array;
  mutable lvals : int array;
  mutable next : leaf option;
}

type node = Leaf of leaf | Internal of internal

and internal = {
  mutable ikeys : int array;  (* separators; length = children - 1 *)
  mutable children : node array;
}

(* [replaced]/[old] carry the overwritten value out of [insert_rec], so
   the recursion returns only the split and an update allocates no tuple. *)
type t = {
  order : int;
  mutable root : node;
  mutable size : int;
  mutable replaced : bool;
  mutable old : int;
}

let create ?(order = 64) () =
  let order = Stdlib.max 4 order in
  { order;
    root = Leaf { lkeys = [||]; lvals = [||]; next = None };
    size = 0;
    replaced = false;
    old = 0 }

(* --- array helpers ------------------------------------------------------- *)

let arr_insert a i x =
  let n = Array.length a in
  Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

let arr_remove a i =
  let n = Array.length a in
  Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

(* First index with a.(i) >= key, by binary search. *)
let lower_bound a key =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

(* Child to descend into for [key]: first separator greater than key. *)
let child_index ikeys key =
  let lo = ref 0 and hi = ref (Array.length ikeys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ikeys.(mid) <= key then lo := mid + 1 else hi := mid
  done;
  !lo

(* --- find ------------------------------------------------------------------ *)

let rec leaf_for node key =
  match node with
  | Leaf l -> l
  | Internal n -> leaf_for n.children.(child_index n.ikeys key) key

let find t key =
  let l = leaf_for t.root key in
  let i = lower_bound l.lkeys key in
  if i < Array.length l.lkeys && l.lkeys.(i) = key then Some l.lvals.(i) else None

(* --- insert ----------------------------------------------------------------- *)

type split = NoSplit | Split of int * node

let split_leaf t l =
  let n = Array.length l.lkeys in
  if n <= t.order then NoSplit
  else begin
    let mid = n / 2 in
    let right =
      { lkeys = Array.sub l.lkeys mid (n - mid);
        lvals = Array.sub l.lvals mid (n - mid);
        next = l.next }
    in
    l.lkeys <- Array.sub l.lkeys 0 mid;
    l.lvals <- Array.sub l.lvals 0 mid;
    l.next <- Some right;
    Split (right.lkeys.(0), Leaf right)
  end

let split_internal t n =
  let k = Array.length n.ikeys in
  if k <= t.order then NoSplit
  else begin
    let mid = k / 2 in
    let sep = n.ikeys.(mid) in
    let right =
      { ikeys = Array.sub n.ikeys (mid + 1) (k - mid - 1);
        children = Array.sub n.children (mid + 1) (Array.length n.children - mid - 1) }
    in
    n.ikeys <- Array.sub n.ikeys 0 mid;
    n.children <- Array.sub n.children 0 (mid + 1);
    Split (sep, Internal right)
  end

let rec insert_rec t node key value =
  match node with
  | Leaf l ->
      let i = lower_bound l.lkeys key in
      if i < Array.length l.lkeys && l.lkeys.(i) = key then begin
        t.replaced <- true;
        t.old <- l.lvals.(i);
        l.lvals.(i) <- value;
        NoSplit
      end
      else begin
        l.lkeys <- arr_insert l.lkeys i key;
        l.lvals <- arr_insert l.lvals i value;
        t.size <- t.size + 1;
        split_leaf t l
      end
  | Internal n -> (
      let i = child_index n.ikeys key in
      match insert_rec t n.children.(i) key value with
      | NoSplit -> NoSplit
      | Split (sep, right) ->
          n.ikeys <- arr_insert n.ikeys i sep;
          n.children <- arr_insert n.children (i + 1) right;
          split_internal t n)

let insert t key value =
  t.replaced <- false;
  (match insert_rec t t.root key value with
  | NoSplit -> ()
  | Split (sep, right) ->
      t.root <- Internal { ikeys = [| sep |]; children = [| t.root; right |] });
  if t.replaced then Some t.old else None

(* --- delete ------------------------------------------------------------------ *)

let min_keys t = t.order / 2

let leaf_len = function Leaf l -> Array.length l.lkeys | Internal n -> Array.length n.ikeys

(* Rebalance child [i] of internal [n] after a deletion left it under
   occupancy: borrow from a sibling when possible, otherwise merge. *)
let rebalance t n i =
  let borrow_from_left () =
    match (n.children.(i - 1), n.children.(i)) with
    | Leaf left, Leaf cur ->
        let k = Array.length left.lkeys - 1 in
        cur.lkeys <- arr_insert cur.lkeys 0 left.lkeys.(k);
        cur.lvals <- arr_insert cur.lvals 0 left.lvals.(k);
        left.lkeys <- arr_remove left.lkeys k;
        left.lvals <- arr_remove left.lvals k;
        n.ikeys.(i - 1) <- cur.lkeys.(0)
    | Internal left, Internal cur ->
        let k = Array.length left.ikeys - 1 in
        cur.ikeys <- arr_insert cur.ikeys 0 n.ikeys.(i - 1);
        cur.children <- arr_insert cur.children 0 left.children.(k + 1);
        n.ikeys.(i - 1) <- left.ikeys.(k);
        left.ikeys <- arr_remove left.ikeys k;
        left.children <- arr_remove left.children (k + 1)
    | _ -> assert false
  in
  let borrow_from_right () =
    match (n.children.(i), n.children.(i + 1)) with
    | Leaf cur, Leaf right ->
        cur.lkeys <- arr_insert cur.lkeys (Array.length cur.lkeys) right.lkeys.(0);
        cur.lvals <- arr_insert cur.lvals (Array.length cur.lvals) right.lvals.(0);
        right.lkeys <- arr_remove right.lkeys 0;
        right.lvals <- arr_remove right.lvals 0;
        n.ikeys.(i) <- right.lkeys.(0)
    | Internal cur, Internal right ->
        cur.ikeys <- arr_insert cur.ikeys (Array.length cur.ikeys) n.ikeys.(i);
        cur.children <- arr_insert cur.children (Array.length cur.children) right.children.(0);
        n.ikeys.(i) <- right.ikeys.(0);
        right.ikeys <- arr_remove right.ikeys 0;
        right.children <- arr_remove right.children 0
    | _ -> assert false
  in
  let merge_into_left j =
    (* Merge child j+1 into child j and drop separator j. *)
    (match (n.children.(j), n.children.(j + 1)) with
    | Leaf a, Leaf b ->
        a.lkeys <- Array.append a.lkeys b.lkeys;
        a.lvals <- Array.append a.lvals b.lvals;
        a.next <- b.next
    | Internal a, Internal b ->
        a.ikeys <- Array.concat [ a.ikeys; [| n.ikeys.(j) |]; b.ikeys ];
        a.children <- Array.append a.children b.children
    | _ -> assert false);
    n.ikeys <- arr_remove n.ikeys j;
    n.children <- arr_remove n.children (j + 1)
  in
  let m = min_keys t in
  if i > 0 && leaf_len n.children.(i - 1) > m then borrow_from_left ()
  else if i < Array.length n.children - 1 && leaf_len n.children.(i + 1) > m then
    borrow_from_right ()
  else if i > 0 then merge_into_left (i - 1)
  else merge_into_left i

let rec delete_rec t node key =
  match node with
  | Leaf l ->
      let i = lower_bound l.lkeys key in
      if i < Array.length l.lkeys && l.lkeys.(i) = key then begin
        let old = l.lvals.(i) in
        l.lkeys <- arr_remove l.lkeys i;
        l.lvals <- arr_remove l.lvals i;
        t.size <- t.size - 1;
        Some old
      end
      else None
  | Internal n ->
      let i = child_index n.ikeys key in
      let old = delete_rec t n.children.(i) key in
      if old <> None && leaf_len n.children.(i) < min_keys t then rebalance t n i;
      old

let delete t key =
  let old = delete_rec t t.root key in
  (match t.root with
  | Internal n when Array.length n.children = 1 -> t.root <- n.children.(0)
  | _ -> ());
  old

(* --- range ------------------------------------------------------------------- *)

let range t ~lo ~hi =
  let rec walk l acc =
    let n = Array.length l.lkeys in
    let rec scan i acc =
      if i >= n then
        match l.next with
        | Some nx when n = 0 || l.lkeys.(n - 1) <= hi -> walk nx acc
        | _ -> acc
      else if l.lkeys.(i) > hi then acc
      else scan (i + 1) ((l.lkeys.(i), l.lvals.(i)) :: acc)
    in
    scan (lower_bound l.lkeys lo) acc
  in
  List.rev (walk (leaf_for t.root lo) [])

(* [range_count]'s leaf walk as top-level functions with explicit
   arguments: without flambda a local [let rec] that captures [lo]/[hi]
   is a heap closure allocated on every call. *)
let rec count_leaf l ~lo ~hi acc = count_scan l (lower_bound l.lkeys lo) ~lo ~hi acc

and count_scan l i ~lo ~hi acc =
  let n = Array.length l.lkeys in
  if i >= n then
    match l.next with
    | Some nx when n = 0 || l.lkeys.(n - 1) <= hi -> count_leaf nx ~lo ~hi acc
    | _ -> acc
  else if l.lkeys.(i) > hi then acc
  else count_scan l (i + 1) ~lo ~hi (acc + 1)

let range_count t ~lo ~hi = count_leaf (leaf_for t.root lo) ~lo ~hi 0

let size t = t.size

let min_key t =
  let rec leftmost = function
    | Leaf l -> if Array.length l.lkeys = 0 then None else Some l.lkeys.(0)
    | Internal n -> leftmost n.children.(0)
  in
  leftmost t.root

let max_key t =
  let rec rightmost = function
    | Leaf l ->
        let n = Array.length l.lkeys in
        if n = 0 then None else Some l.lkeys.(n - 1)
    | Internal n -> rightmost n.children.(Array.length n.children - 1)
  in
  rightmost t.root

let iter t f =
  let rec walk = function
    | None -> ()
    | Some l ->
        Array.iteri (fun i k -> f k l.lvals.(i)) l.lkeys;
        walk l.next
  in
  walk (Some (leaf_for t.root min_int))

(* --- invariants ---------------------------------------------------------------- *)

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let rec depth = function
    | Leaf _ -> 0
    | Internal n -> 1 + depth n.children.(0)
  in
  let d = depth t.root in
  let count = ref 0 in
  let rec go node lo hi level =
    (match node with
    | Leaf l ->
        if level <> d then fail "leaves at unequal depth";
        count := !count + Array.length l.lkeys;
        Array.iteri
          (fun i k ->
            if k < lo || k >= hi then fail "leaf key %d out of bounds [%d,%d)" k lo hi;
            if i > 0 && l.lkeys.(i - 1) >= k then fail "leaf keys not strictly sorted")
          l.lkeys
    | Internal n ->
        let nc = Array.length n.children in
        if Array.length n.ikeys <> nc - 1 then fail "separator/child count mismatch";
        if nc < 2 then fail "internal node with fewer than 2 children";
        if level > 0 && Array.length n.ikeys < min_keys t then fail "internal underflow";
        Array.iteri
          (fun i k ->
            if k < lo || k >= hi then fail "separator out of bounds";
            if i > 0 && n.ikeys.(i - 1) >= k then fail "separators not sorted")
          n.ikeys;
        Array.iteri
          (fun i c ->
            let clo = if i = 0 then lo else n.ikeys.(i - 1) in
            let chi = if i = nc - 1 then hi else n.ikeys.(i) in
            go c clo chi (level + 1))
          n.children)
  in
  go t.root min_int max_int 0;
  if !count <> t.size then fail "size %d but %d keys found" t.size !count;
  (* Leaf chain covers all keys in sorted order. *)
  let prev = ref min_int and chained = ref 0 in
  iter t (fun k _ ->
      if k <= !prev then fail "leaf chain out of order";
      prev := k;
      incr chained);
  if !chained <> t.size then fail "leaf chain misses keys"

let populate t ~n ~key_range ~seed =
  (* Simple deterministic LCG so the btree library stays dependency-free. *)
  let state = ref (Int64.of_int (seed + 1)) in
  let next () =
    state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    Int64.to_int (Int64.shift_right_logical !state 17)
  in
  let inserted = ref 0 in
  while !inserted < n do
    let k = 1 + (next () mod key_range) in
    let k = if k < 0 then -k else k in
    if insert t k k = None then incr inserted
  done

(* --- key-set conflict predicate --------------------------------------------- *)

module Keyset = struct
  (* Sorted, disjoint, inclusive key ranges.  Normalisation at construction
     makes [overlaps] a linear merge-walk, so the parallel executor's
     conflict checks cost O(ranges) per candidate pair. *)
  type t = (int * int) array

  let empty : t = [||]
  let full : t = [| (min_int, max_int) |]
  let is_empty (t : t) = Array.length t = 0
  let singleton k : t = [| (k, k) |]
  let range ~lo ~hi : t = if hi < lo then empty else [| (lo, hi) |]
  let ranges (t : t) = Array.to_list t

  let of_ranges l =
    let l = List.filter (fun (lo, hi) -> lo <= hi) l in
    let l = List.sort (fun (a, _) (b, _) -> compare a b) l in
    match l with
    | [] -> empty
    | (lo0, hi0) :: rest ->
        let acc = ref [] and lo = ref lo0 and hi = ref hi0 in
        List.iter
          (fun (l', h') ->
            (* Merge overlapping or adjacent ranges. *)
            if !hi < max_int && l' > !hi + 1 then begin
              acc := (!lo, !hi) :: !acc;
              lo := l';
              hi := h'
            end
            else if h' > !hi then hi := h')
          rest;
        acc := (!lo, !hi) :: !acc;
        Array.of_list (List.rev !acc)

  (* The merge-walks are top-level so a check allocates no closure: the
     executor runs [conflict] against every in-flight command. *)
  let rec overlaps_from (a : t) (b : t) i j =
    if i >= Array.length a || j >= Array.length b then false
    else
      let alo, ahi = a.(i) and blo, bhi = b.(j) in
      if ahi < blo then overlaps_from a b (i + 1) j
      else if bhi < alo then overlaps_from a b i (j + 1)
      else true

  let overlaps a b = overlaps_from a b 0 0

  (* [subset a b]: every key of [a] lies in [b].  Since both sides are
     sorted and disjoint, each range of [a] must fit inside a single range
     of [b] (a range spanning a gap of [b] covers keys outside it), so one
     merge-walk suffices.  The empty set is a subset of everything. *)
  let rec subset_from (a : t) (b : t) i j =
    if i >= Array.length a then true
    else if j >= Array.length b then false
    else
      let alo, ahi = a.(i) and blo, bhi = b.(j) in
      if bhi < alo then subset_from a b i (j + 1)
      else blo <= alo && ahi <= bhi && subset_from a b (i + 1) j

  let subset a b = subset_from a b 0 0

  (* Two commands conflict when one's writes intersect the other's reads or
     writes (read-read sharing is always safe). *)
  let conflict ~r1 ~w1 ~r2 ~w2 =
    overlaps w1 w2 || overlaps w1 r2 || overlaps r1 w2
end
