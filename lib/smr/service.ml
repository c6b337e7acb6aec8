type outcome = {
  resp_size : int;
  cost : float;
}

type t = {
  execute : Simnet.payload -> outcome;
  last_undo : unit -> (unit -> unit) option;
  rollback_cost : float;
}

(* Every call answers the same immutable outcome, allocated once. *)
let dummy ?(cost = 0.0) ?(resp_size = 64) () =
  let outcome = { resp_size; cost } in
  { execute = (fun _ -> outcome); last_undo = (fun () -> None); rollback_cost = 0.0 }
