(* Atomic multicast with Multi-Ring Paxos: two groups, three subscribers.

   Learner A subscribes to group 0, learner B to group 1, and learner C to
   both.  C's deterministic merge interleaves the groups identically with
   any other all-group subscriber, and skip messages keep C going even when
   one group is idle.

     dune exec examples/multiring_groups.exe *)

type Simnet.payload += Msg of string

let () =
  let env = Hpsmr.Env.create ~seed:5 () in
  let deliveries = Array.make 3 [] in
  let cfg = { Hpsmr.Multiring.default_config with n_rings = 2; lambda = 2000.0 } in
  let subs = function 0 -> [ 0 ] | 1 -> [ 1 ] | _ -> [ 0; 1 ] in
  let mr =
    Hpsmr.Multiring.create env.net cfg ~n_learners:3 ~subs ~proposers_per_ring:1
      ~deliver:(fun ~learner ~group _ app ->
        match app with
        | Msg s -> deliveries.(learner) <- (group, s) :: deliveries.(learner)
        | _ -> ())
  in
  (* Interleaved traffic on both groups, then group 1 goes silent. *)
  List.iteri
    (fun i name ->
      let group = i mod 2 in
      ignore
        (Hpsmr.Multiring.multicast mr ~group ~proposer:0 ~size:200 (Msg name)))
    [ "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot" ];
  Hpsmr.Env.run env ~for_:0.3;
  ignore (Hpsmr.Multiring.multicast mr ~group:0 ~proposer:0 ~size:200 (Msg "golf"));
  ignore (Hpsmr.Multiring.multicast mr ~group:0 ~proposer:0 ~size:200 (Msg "hotel"));
  Hpsmr.Env.run env ~for_:0.7;
  let show l =
    String.concat ", "
      (List.rev_map (fun (g, s) -> Printf.sprintf "%s@g%d" s g) deliveries.(l))
  in
  Printf.printf "learner A (group 0):    %s\n" (show 0);
  Printf.printf "learner B (group 1):    %s\n" (show 1);
  Printf.printf "learner C (merged 0+1): %s\n" (show 2);
  Printf.printf "skips proposed for idle group 1: %d\n"
    (Hpsmr.Multiring.skips_proposed mr 1);
  assert (List.length deliveries.(2) = 8);
  print_endline "multi-ring demo done"
