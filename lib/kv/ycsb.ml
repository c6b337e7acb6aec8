module OL = Smr.Workload.Open_loop

type preset = A | B | C | D | E

let all = [ A; B; C; D; E ]

let name = function
  | A -> "ycsb-a"
  | B -> "ycsb-b"
  | C -> "ycsb-c"
  | D -> "ycsb-d"
  | E -> "ycsb-e"

let of_name s =
  List.find_opt (fun p -> name p = s || name p = "ycsb-" ^ s) all

let describe = function
  | A -> "update heavy: 50% read / 50% update, zipf"
  | B -> "read mostly: 95% read / 5% update, zipf"
  | C -> "read only: 100% read, zipf"
  | D -> "read latest: 95% read / 5% insert, latest-key"
  | E -> "short ranges: 95% scan / 5% insert, zipf"

(* The standard YCSB mixes (Cooper et al., SoCC'10), expressed as weighted
   op lists for {!Smr.Workload.Open_loop}. *)
let ops = function
  | A -> [ (OL.Read, 50); (OL.Update, 50) ]
  | B -> [ (OL.Read, 95); (OL.Update, 5) ]
  | C -> [ (OL.Read, 100) ]
  | D -> [ (OL.Read, 95); (OL.Insert, 5) ]
  | E -> [ (OL.Scan, 95); (OL.Insert, 5) ]

(* YCSB's scrambled-zipfian constant. *)
let zipf_s = 0.99

let dist = function
  | D -> OL.Latest zipf_s
  | _ -> OL.Zipf zipf_s

let workload ?(key_range = 100_000) ?(query_span = 50) p rng ~rate =
  OL.create ~ops:(ops p) ~dist:(dist p) ~query_span rng ~key_range ~rate
