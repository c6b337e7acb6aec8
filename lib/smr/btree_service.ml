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

let create ?(costs = default_costs) ?(initial_keys = 0) ?(key_range = 1_000_000) ?(seed = 1)
    () =
  let tree = Btree.create () in
  if initial_keys > 0 then Btree.populate tree ~n:initial_keys ~key_range ~seed;
  let insert key value ~cost =
    let old = Btree.insert tree key value in
    let undo () =
      match old with
      | None -> ignore (Btree.delete tree key)
      | Some v -> ignore (Btree.insert tree key v)
    in
    { Service.resp_size = costs.update_resp; cost; undo = Some undo }
  in
  let rec exec_one = function
    | Insert { key; value } -> insert key value ~cost:costs.update_cost
    | Delete { key } ->
        let old = Btree.delete tree key in
        let undo () =
          match old with None -> () | Some v -> ignore (Btree.insert tree key v)
        in
        { resp_size = costs.update_resp; cost = costs.update_cost; undo = Some undo }
    | Query { lo; hi } ->
        let hits = Btree.range_count tree ~lo ~hi in
        { resp_size = costs.query_resp;
          cost = costs.query_base +. (costs.query_per_key *. float_of_int hits);
          undo = None }
    | Batch ops ->
        let outcomes = List.map exec_one ops in
        let cost = List.fold_left (fun acc (o : Service.outcome) -> acc +. o.cost) 0.0 outcomes in
        let undos = List.filter_map (fun (o : Service.outcome) -> o.undo) outcomes in
        let undo () = List.iter (fun u -> u ()) (List.rev undos) in
        { resp_size = costs.update_resp; cost; undo = Some undo }
    | _ -> { resp_size = 64; cost = 0.0; undo = None }
  in
  (* Insert and Query, the hot commands, build their outcome with the
     command overhead already in [cost] (same sums, same association)
     instead of copying the record; the rest take the generic path. *)
  let insert_cost = costs.update_cost +. costs.cmd_overhead in
  let execute = function
    | Insert { key; value } -> insert key value ~cost:insert_cost
    | Query { lo; hi } ->
        let hits = Btree.range_count tree ~lo ~hi in
        { resp_size = costs.query_resp;
          cost =
            costs.query_base +. (costs.query_per_key *. float_of_int hits)
            +. costs.cmd_overhead;
          undo = None }
    | op ->
        let o = exec_one op in
        { o with Service.cost = o.Service.cost +. costs.cmd_overhead }
  in
  let service = { Service.execute; rollback_cost = costs.update_cost } in
  { service; tree }

let fingerprint t =
  let h = ref 5381 in
  Btree.iter t.tree (fun k v ->
      h := (((!h lsl 5) + !h) lxor k lxor (v * 2654435761)) land max_int);
  !h lxor Btree.size t.tree
