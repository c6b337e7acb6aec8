type t = {
  s_name : string;
  n : int;
  bcast : (int, unit) Hashtbl.t;
  mutable nbcast : int;
  logs : int list array; (* newest first *)
  seen : (int, unit) Hashtbl.t array;
  mutable canon : int array;
  mutable canon_len : int;
  pos : int array;
  mutable viols : string list; (* newest first *)
  mutable nviols : int;
}

let create ~name ~n_learners =
  { s_name = name;
    n = n_learners;
    bcast = Hashtbl.create 4096;
    nbcast = 0;
    logs = Array.make n_learners [];
    seen = Array.init n_learners (fun _ -> Hashtbl.create 4096);
    canon = Array.make 1024 0;
    canon_len = 0;
    pos = Array.make n_learners 0;
    viols = [];
    nviols = 0 }

let violation t msg =
  t.nviols <- t.nviols + 1;
  if t.nviols <= 20 then t.viols <- (t.s_name ^ ": " ^ msg) :: t.viols

let broadcast t uid =
  if not (Hashtbl.mem t.bcast uid) then begin
    Hashtbl.add t.bcast uid ();
    t.nbcast <- t.nbcast + 1
  end

let canon_push t uid =
  if t.canon_len = Array.length t.canon then begin
    let bigger = Array.make (2 * t.canon_len) 0 in
    Array.blit t.canon 0 bigger 0 t.canon_len;
    t.canon <- bigger
  end;
  t.canon.(t.canon_len) <- uid;
  t.canon_len <- t.canon_len + 1

let delivered t ~learner uid =
  t.logs.(learner) <- uid :: t.logs.(learner);
  if not (Hashtbl.mem t.bcast uid) then
    violation t (Printf.sprintf "no-creation: learner %d delivered %d, never broadcast" learner uid);
  if Hashtbl.mem t.seen.(learner) uid then
    violation t (Printf.sprintf "no-duplication: learner %d delivered %d twice" learner uid)
  else Hashtbl.add t.seen.(learner) uid ();
  let k = t.pos.(learner) in
  if k < t.canon_len then begin
    if t.canon.(k) <> uid then
      violation t
        (Printf.sprintf "total-order: learner %d delivered %d at position %d, expected %d"
           learner uid k t.canon.(k))
  end
  else canon_push t uid;
  t.pos.(learner) <- k + 1

let delivered_counts t = Array.map List.length t.logs

type verdict = {
  ok : bool;
  violations : string list;
  broadcast : int;
  delivered : int array;
}

let verdict ?alive t =
  let logs = Array.to_list (Array.map List.rev t.logs) in
  let broadcast_list = Hashtbl.fold (fun k () acc -> k :: acc) t.bcast [] in
  if not (Abcast.Properties.integrity ~broadcast:broadcast_list logs) then
    violation t "oracle: integrity";
  if not (Abcast.Properties.total_order logs) then violation t "oracle: total order";
  let idx = match alive with Some l -> l | None -> List.init t.n Fun.id in
  let alive_logs = List.map (fun i -> List.rev t.logs.(i)) idx in
  if not (Abcast.Properties.agreement alive_logs) then
    violation t "oracle: uniform agreement (alive learners differ at quiescence)";
  { ok = t.nviols = 0;
    violations = List.rev t.viols;
    broadcast = t.nbcast;
    delivered = delivered_counts t }
