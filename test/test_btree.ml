(* Tests for the B+-tree service substrate. *)

module B = Btree

let test_empty () =
  let t = B.create () in
  Alcotest.(check int) "size" 0 (B.size t);
  Alcotest.(check (option int)) "find" None (B.find t 5);
  Alcotest.(check (option int)) "min" None (B.min_key t);
  Alcotest.(check (list (pair int int))) "range" [] (B.range t ~lo:0 ~hi:100);
  B.check t

let test_insert_find () =
  let t = B.create ~order:4 () in
  for i = 1 to 100 do
    Alcotest.(check (option int)) "fresh insert" None (B.insert t i (i * 10))
  done;
  B.check t;
  Alcotest.(check int) "size" 100 (B.size t);
  for i = 1 to 100 do
    Alcotest.(check (option int)) "find" (Some (i * 10)) (B.find t i)
  done;
  Alcotest.(check (option int)) "overwrite returns old" (Some 50) (B.insert t 5 99);
  Alcotest.(check int) "size unchanged" 100 (B.size t);
  Alcotest.(check (option int)) "new value" (Some 99) (B.find t 5)

let test_delete () =
  let t = B.create ~order:4 () in
  for i = 1 to 200 do
    ignore (B.insert t i i)
  done;
  for i = 1 to 200 do
    if i mod 2 = 0 then
      Alcotest.(check (option int)) "delete present" (Some i) (B.delete t i)
  done;
  B.check t;
  Alcotest.(check int) "half left" 100 (B.size t);
  Alcotest.(check (option int)) "deleted gone" None (B.find t 2);
  Alcotest.(check (option int)) "delete absent" None (B.delete t 2);
  for i = 1 to 199 do
    if i mod 2 = 1 then Alcotest.(check (option int)) "odd kept" (Some i) (B.find t i)
  done

let test_delete_everything () =
  let t = B.create ~order:4 () in
  for i = 1 to 500 do
    ignore (B.insert t i i)
  done;
  for i = 500 downto 1 do
    ignore (B.delete t i)
  done;
  B.check t;
  Alcotest.(check int) "empty again" 0 (B.size t)

let test_range () =
  let t = B.create ~order:8 () in
  for i = 0 to 99 do
    ignore (B.insert t (i * 10) i)
  done;
  let r = B.range t ~lo:95 ~hi:155 in
  Alcotest.(check (list (pair int int))) "inclusive bounds" [ (100, 10); (110, 11); (120, 12); (130, 13); (140, 14); (150, 15) ] r;
  Alcotest.(check int) "range_count agrees" (List.length r) (B.range_count t ~lo:95 ~hi:155);
  Alcotest.(check int) "full range" 100 (B.range_count t ~lo:min_int ~hi:max_int);
  Alcotest.(check (list (pair int int))) "empty window" [] (B.range t ~lo:1 ~hi:9)

let test_min_max () =
  let t = B.create ~order:4 () in
  List.iter (fun k -> ignore (B.insert t k k)) [ 42; 7; 99; 13 ];
  Alcotest.(check (option int)) "min" (Some 7) (B.min_key t);
  Alcotest.(check (option int)) "max" (Some 99) (B.max_key t)

let test_populate () =
  let t = B.create () in
  B.populate t ~n:5000 ~key_range:1_000_000 ~seed:7;
  Alcotest.(check int) "exactly n distinct keys" 5000 (B.size t);
  B.check t

let prop_matches_reference =
  (* Random interleavings of insert/delete/overwrite against Stdlib.Map. *)
  QCheck.Test.make ~name:"btree: agrees with Map reference" ~count:120
    QCheck.(list (pair (int_range 0 200) (int_range 0 2)))
    (fun ops ->
      let t = B.create ~order:4 () in
      let reference = Hashtbl.create 64 in
      List.iter
        (fun (k, op) ->
          match op with
          | 0 ->
              let prev = B.insert t k (k * 2) in
              let expect = Hashtbl.find_opt reference k in
              Hashtbl.replace reference k (k * 2);
              if prev <> expect then failwith "insert mismatch"
          | 1 ->
              let prev = B.delete t k in
              let expect = Hashtbl.find_opt reference k in
              Hashtbl.remove reference k;
              if prev <> expect then failwith "delete mismatch"
          | _ ->
              if B.find t k <> Hashtbl.find_opt reference k then failwith "find mismatch")
        ops;
      B.check t;
      B.size t = Hashtbl.length reference)

let prop_range_matches_reference =
  QCheck.Test.make ~name:"btree: range agrees with filtered reference" ~count:80
    QCheck.(triple (list (int_range 0 500)) (int_range 0 500) (int_range 0 500))
    (fun (keys, a, b) ->
      let lo = Stdlib.min a b and hi = Stdlib.max a b in
      let t = B.create ~order:4 () in
      List.iter (fun k -> ignore (B.insert t k k)) keys;
      let expected =
        List.sort_uniq compare keys
        |> List.filter (fun k -> k >= lo && k <= hi)
        |> List.map (fun k -> (k, k))
      in
      B.range t ~lo ~hi = expected)

let prop_deterministic_replay =
  (* Two trees fed the same operation sequence are observationally equal —
     the property SMR correctness rests on. *)
  QCheck.Test.make ~name:"btree: deterministic replay" ~count:50
    QCheck.(list (pair (int_range 0 300) bool))
    (fun ops ->
      let a = B.create ~order:8 () and b = B.create ~order:8 () in
      List.iter
        (fun (k, ins) ->
          if ins then (
            ignore (B.insert a k k);
            ignore (B.insert b k k))
          else (
            ignore (B.delete a k);
            ignore (B.delete b k)))
        ops;
      B.range a ~lo:min_int ~hi:max_int = B.range b ~lo:min_int ~hi:max_int)

let suite =
  [ Alcotest.test_case "empty tree" `Quick test_empty;
    Alcotest.test_case "insert + find + overwrite" `Quick test_insert_find;
    Alcotest.test_case "delete with rebalancing" `Quick test_delete;
    Alcotest.test_case "delete everything" `Quick test_delete_everything;
    Alcotest.test_case "range queries" `Quick test_range;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "populate distinct" `Quick test_populate;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_range_matches_reference;
    QCheck_alcotest.to_alcotest prop_deterministic_replay ]

(* --- Keyset: range-edge audit + differential vs a naive set oracle ------- *)

module KS = B.Keyset
module IS = Set.Make (Int)

let set_of_ranges l =
  List.fold_left
    (fun acc (lo, hi) ->
      let acc = ref acc in
      if lo <= hi then
        for k = lo to hi do
          acc := IS.add k !acc
        done;
      !acc)
    IS.empty l

let test_keyset_edges () =
  let ks = KS.of_ranges in
  (* Range endpoints are inclusive: a shared endpoint is a conflict... *)
  Alcotest.(check bool) "shared endpoint overlaps" true
    (KS.overlaps (ks [ (1, 5) ]) (ks [ (5, 9) ]));
  (* ...adjacent ranges are not, but normalisation merges them. *)
  Alcotest.(check bool) "adjacent ranges disjoint" false
    (KS.overlaps (ks [ (1, 5) ]) (ks [ (6, 9) ]));
  Alcotest.(check (list (pair int int))) "adjacent ranges merge" [ (1, 9) ]
    (KS.ranges (ks [ (6, 9); (1, 5) ]));
  Alcotest.(check bool) "singleton self-overlap" true
    (KS.overlaps (KS.singleton 5) (ks [ (5, 5) ]));
  Alcotest.(check bool) "distinct singletons disjoint" false
    (KS.overlaps (KS.singleton 5) (KS.singleton 6));
  (* Inverted ranges are empty and dropped by normalisation. *)
  let empty = ks [ (4, 2) ] in
  Alcotest.(check bool) "inverted range is empty" true (KS.is_empty empty);
  Alcotest.(check bool) "empty overlaps nothing" false
    (KS.overlaps empty (ks [ (0, 100) ]));
  Alcotest.(check bool) "empty is subset of anything" true
    (KS.subset empty (KS.singleton 7));
  Alcotest.(check bool) "non-empty is not subset of empty" false
    (KS.subset (KS.singleton 7) empty);
  (* A gap in the cover defeats subset even when the hull covers. *)
  Alcotest.(check bool) "gap defeats subset" false
    (KS.subset (ks [ (1, 10) ]) (ks [ (1, 4); (6, 10) ]));
  Alcotest.(check bool) "exact cover across pieces" true
    (KS.subset (ks [ (1, 4); (6, 10) ]) (ks [ (1, 10) ]));
  Alcotest.(check bool) "full covers everything" true
    (KS.subset (ks [ (min_int, 0); (max_int, max_int) ]) KS.full)

let range_list =
  QCheck.(list_of_size Gen.(int_range 0 8) (pair (int_range 0 60) (int_range 0 60)))

let prop_keyset_overlaps_oracle =
  QCheck.Test.make ~name:"keyset: overlaps matches set oracle" ~count:300
    QCheck.(pair range_list range_list)
    (fun (la, lb) ->
      let sa = set_of_ranges la and sb = set_of_ranges lb in
      KS.overlaps (KS.of_ranges la) (KS.of_ranges lb)
      = not (IS.disjoint sa sb))

let prop_keyset_subset_oracle =
  QCheck.Test.make ~name:"keyset: subset matches set oracle" ~count:300
    QCheck.(pair range_list range_list)
    (fun (la, lb) ->
      let sa = set_of_ranges la and sb = set_of_ranges lb in
      KS.subset (KS.of_ranges la) (KS.of_ranges lb) = IS.subset sa sb)

let prop_keyset_normalised =
  (* of_ranges produces ascending, disjoint, non-adjacent ranges denoting
     exactly the oracle set. *)
  QCheck.Test.make ~name:"keyset: of_ranges normalises" ~count:300 range_list
    (fun l ->
      let rs = KS.ranges (KS.of_ranges l) in
      let s = set_of_ranges l in
      let rec well_formed = function
        | [] -> true
        | [ (lo, hi) ] -> lo <= hi
        | (lo, hi) :: ((lo', _) :: _ as rest) ->
            lo <= hi && hi + 1 < lo' && well_formed rest
      in
      well_formed rs && IS.equal s (set_of_ranges rs))

let suite =
  suite
  @ [ Alcotest.test_case "keyset range edges" `Quick test_keyset_edges;
      QCheck_alcotest.to_alcotest prop_keyset_overlaps_oracle;
      QCheck_alcotest.to_alcotest prop_keyset_subset_oracle;
      QCheck_alcotest.to_alcotest prop_keyset_normalised ]

(* --- allocation bounds ------------------------------------------------------- *)

(* Minor words per call of [f] over [n] calls, after a warm-up call. *)
let words_per_call ?(n = 10_000) f =
  f 0;
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_apply_path_allocation () =
  let t = B.create () in
  for k = 0 to 999 do
    ignore (B.insert t k k)
  done;
  (* Overwriting an existing key allocates only the [Some] it returns. *)
  let update = words_per_call (fun i -> ignore (B.insert t (i mod 1000) i)) in
  Alcotest.(check bool)
    (Printf.sprintf "update of an existing key: %.2f words (<= 3)" update)
    true (update <= 3.0);
  let point =
    words_per_call (fun i ->
        let k = i mod 1000 in
        ignore (B.range_count t ~lo:k ~hi:k))
  in
  Alcotest.(check (float 0.0)) "point range_count allocates nothing" 0.0 point;
  (* Disjoint sets, so each of the three overlap walks runs to the end. *)
  let a = KS.of_ranges [ (1, 5); (20, 30) ] and b = KS.of_ranges [ (7, 9); (40, 50) ] in
  let c = KS.of_ranges [ (10, 12); (60, 70) ] and d = KS.singleton 100 in
  let conflict =
    words_per_call (fun _ ->
        ignore (Sys.opaque_identity (KS.conflict ~r1:a ~w1:b ~r2:c ~w2:d)))
  in
  Alcotest.(check (float 0.0)) "Keyset.conflict allocates nothing" 0.0 conflict

let suite =
  suite
  @ [ Alcotest.test_case "apply-path allocation bounds" `Quick test_apply_path_allocation ]
