type outcome = {
  resp_size : int;
  cost : float;
  undo : (unit -> unit) option;
}

type t = {
  execute : Simnet.payload -> outcome;
  rollback_cost : float;
}

(* Every call answers the same immutable outcome, allocated once. *)
let dummy ?(cost = 0.0) ?(resp_size = 64) () =
  let outcome = { resp_size; cost; undo = None } in
  { execute = (fun _ -> outcome); rollback_cost = 0.0 }
