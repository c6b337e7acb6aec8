type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 16

(* One lookup and no [Some] on the hot path: bumping an existing counter
   allocates nothing. *)
let add t name n =
  match Hashtbl.find t name with
  | r -> r := !r + n
  | exception Not_found -> Hashtbl.add t name (ref n)

let incr t name = add t name 1
let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let snapshot t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset t = Hashtbl.reset t
