(* `bench/main.exe -- chaos [--seeds N] [--protocol P] [--duration S]`:
   run the seeded fault schedules of lib/fault per protocol family and
   print one verdict line per (protocol, seed).  Exits non-zero when any
   safety invariant is violated, so CI can gate on it. *)

let usage () =
  prerr_endline
    ("usage: chaos [--seeds N] [--protocol P] [--duration S]\nprotocols: "
    ^ String.concat " | " ("all" :: Fault.Chaos.protocols));
  exit 1

let run args =
  let seeds = ref 5 in
  let duration = ref 4.0 in
  let protos = ref [] in
  let rec parse = function
    | [] -> ()
    | "--seeds" :: n :: rest ->
        (match int_of_string_opt n with Some n when n > 0 -> seeds := n | _ -> usage ());
        parse rest
    | "--duration" :: s :: rest ->
        (match float_of_string_opt s with Some s when s > 0.0 -> duration := s | _ -> usage ());
        parse rest
    | "--protocol" :: p :: rest ->
        if p = "all" then protos := Fault.Chaos.protocols
        else if List.mem p Fault.Chaos.protocols then protos := !protos @ [ p ]
        else usage ();
        parse rest
    | _ -> usage ()
  in
  parse args;
  let protocols = if !protos = [] then Fault.Chaos.protocols else !protos in
  Util.header
    (Printf.sprintf "Chaos: %d seeds x [%s], %.1fs horizon" !seeds
       (String.concat " " protocols) !duration);
  let failures = Fault.Chaos.run_all ~protocols ~seeds:!seeds ~duration:!duration () in
  if failures > 0 then exit 1
