type Simnet.payload +=
  | Insert of { key : int; value : int }
  | Delete of { key : int }
  | Query of { lo : int; hi : int }
  | Batch of Simnet.payload list

let read_only = function Query _ -> true | _ -> false

type cost_model = {
  update_cost : float;
  query_base : float;
  query_per_key : float;
  cmd_overhead : float;
  update_resp : int;
  query_resp : int;
}

let default_costs =
  { update_cost = 1.2e-6;
    query_base = 3.0e-5;
    query_per_key = 2.0e-7;
    cmd_overhead = 6.0e-7;
    update_resp = 256;
    query_resp = 8192 }

type t = { service : Service.t; tree : Btree.t }

(* What the latest command changed, in plain fields so that executing one
   builds nothing: [last_undo] turns it into a closure only when a caller
   that may roll back asks. *)
type change =
  | Unchanged  (* a read, a delete of a missing key, an unknown command *)
  | Was_absent  (* [ch_key] was not in the tree: the inverse deletes it *)
  | Was_present  (* [ch_key] held [ch_prior]: the inverse re-inserts it *)
  | Was_batch  (* the inverses of the batch's updates are [ch_batch] *)

type last = {
  mutable ch : change;
  mutable ch_key : int;
  mutable ch_prior : int;
  mutable ch_batch : (unit -> unit) list;  (* newest first *)
}

let create ?(costs = default_costs) ?(initial_keys = 0) ?(key_range = 1_000_000) ?(seed = 1)
    () =
  let tree = Btree.create () in
  if initial_keys > 0 then Btree.populate tree ~n:initial_keys ~key_range ~seed;
  let last = { ch = Unchanged; ch_key = 0; ch_prior = 0; ch_batch = [] } in
  let was_present key v =
    last.ch <- Was_present;
    last.ch_key <- key;
    last.ch_prior <- v
  in
  let inserted key value =
    match Btree.insert tree key value with
    | None -> last.ch <- Was_absent; last.ch_key <- key
    | Some v -> was_present key v
  in
  let deleted key =
    match Btree.delete tree key with
    | None -> last.ch <- Unchanged
    | Some v -> was_present key v
  in
  let last_undo () =
    match last.ch with
    | Unchanged -> None
    | Was_absent ->
        let key = last.ch_key in
        Some (fun () -> ignore (Btree.delete tree key))
    | Was_present ->
        let key = last.ch_key and v = last.ch_prior in
        Some (fun () -> ignore (Btree.insert tree key v))
    | Was_batch ->
        let undos = last.ch_batch in
        Some (fun () -> List.iter (fun u -> u ()) undos)
  in
  (* One command of a batch: apply it, note its inverse, return its cost
     without the command overhead (summed in order, as the batch pays). *)
  let rec apply = function
    | Insert { key; value } -> inserted key value; costs.update_cost
    | Delete { key } -> deleted key; costs.update_cost
    | Query { lo; hi } ->
        last.ch <- Unchanged;
        costs.query_base
        +. (costs.query_per_key *. float_of_int (Btree.range_count tree ~lo ~hi))
    | Batch ops ->
        let cost = ref 0.0 and undos = ref [] in
        List.iter
          (fun op ->
            cost := !cost +. apply op;
            match last_undo () with Some u -> undos := u :: !undos | None -> ())
          ops;
        last.ch <- Was_batch;
        last.ch_batch <- !undos;
        !cost
    | _ ->
        last.ch <- Unchanged;
        0.0
  in
  (* Outcomes with the command overhead already in [cost], built once and
     shared: an update, a query with 0 or 1 hits (every point query) and an
     unknown command.  Each cost is the expression a fresh outcome would
     compute, so the shared ones are bit-identical to it. *)
  let query_outcome hits =
    { Service.resp_size = costs.query_resp;
      cost =
        costs.query_base +. (costs.query_per_key *. float_of_int hits)
        +. costs.cmd_overhead }
  in
  let update =
    { Service.resp_size = costs.update_resp; cost = costs.update_cost +. costs.cmd_overhead }
  in
  let query0 = query_outcome 0 and query1 = query_outcome 1 in
  let other = { Service.resp_size = 64; cost = 0.0 +. costs.cmd_overhead } in
  let execute = function
    | Insert { key; value } -> inserted key value; update
    | Delete { key } -> deleted key; update
    | Query { lo; hi } ->
        last.ch <- Unchanged;
        let hits = Btree.range_count tree ~lo ~hi in
        if hits = 0 then query0 else if hits = 1 then query1 else query_outcome hits
    | Batch _ as op ->
        let cost = apply op in
        { Service.resp_size = costs.update_resp; cost = cost +. costs.cmd_overhead }
    | _ ->
        last.ch <- Unchanged;
        other
  in
  let service = { Service.execute; last_undo; rollback_cost = costs.update_cost } in
  { service; tree }

let fingerprint t =
  let h = ref 5381 in
  Btree.iter t.tree (fun k v ->
      h := (((!h lsl 5) + !h) lxor k lxor (v * 2654435761)) land max_int);
  !h lxor Btree.size t.tree
