type kind = Queries | Ins_del_single | Ins_del_batch

type command = {
  op : Simnet.payload;
  parts : int list;
  size : int;
}

type t = {
  rng : Sim.Rng.t;
  kind : kind;
  key_range : int;
  n_partitions : int;
  cross_pct : int;
  query_span : int;
}

let cmd_size = 256

let partition_of ~key_range ~n_partitions key =
  let p = key * n_partitions / (key_range + 1) in
  Stdlib.max 0 (Stdlib.min (n_partitions - 1) p)

let create ?(cross_pct = 0) ?(query_span = 1000) rng kind ~key_range ~n_partitions =
  { rng; kind; key_range; n_partitions; cross_pct; query_span }

let parts_of_range t lo hi =
  let p1 = partition_of ~key_range:t.key_range ~n_partitions:t.n_partitions lo in
  let p2 = partition_of ~key_range:t.key_range ~n_partitions:t.n_partitions hi in
  if p1 = p2 then [ p1 ] else List.init (p2 - p1 + 1) (fun i -> p1 + i)

let gen_query t =
  let span = t.query_span in
  let lo =
    if t.n_partitions > 1 && Sim.Rng.int t.rng 100 < t.cross_pct then begin
      (* Straddle a random partition boundary. *)
      let b = 1 + Sim.Rng.int t.rng (t.n_partitions - 1) in
      let boundary = b * (t.key_range + 1) / t.n_partitions in
      boundary - (span / 2)
    end
    else begin
      (* Fully inside a random partition. *)
      let p = Sim.Rng.int t.rng t.n_partitions in
      let plo = p * (t.key_range + 1) / t.n_partitions in
      let phi = ((p + 1) * (t.key_range + 1) / t.n_partitions) - span in
      plo + Sim.Rng.int t.rng (Stdlib.max 1 (phi - plo))
    end
  in
  let lo = Stdlib.max 1 lo in
  let hi = lo + span - 1 in
  { op = Btree_service.Query { lo; hi }; parts = parts_of_range t lo hi; size = cmd_size }

let gen_update t =
  let key = 1 + Sim.Rng.int t.rng t.key_range in
  let op =
    if Sim.Rng.bool t.rng 0.5 then Btree_service.Insert { key; value = key }
    else Btree_service.Delete { key }
  in
  (op, partition_of ~key_range:t.key_range ~n_partitions:t.n_partitions key)

let next t =
  match t.kind with
  | Queries -> gen_query t
  | Ins_del_single ->
      let op, p = gen_update t in
      { op; parts = [ p ]; size = cmd_size }
  | Ins_del_batch ->
      (* Seven updates, all in the same partition so the command is
         single-partition (§4.4.2). *)
      let p = Sim.Rng.int t.rng t.n_partitions in
      let plo = p * (t.key_range + 1) / t.n_partitions in
      let phi = ((p + 1) * (t.key_range + 1) / t.n_partitions) - 1 in
      let ops =
        List.init 7 (fun _ ->
            let key = plo + 1 + Sim.Rng.int t.rng (Stdlib.max 1 (phi - plo)) in
            if Sim.Rng.bool t.rng 0.5 then Btree_service.Insert { key; value = key }
            else Btree_service.Delete { key })
      in
      { op = Btree_service.Batch ops; parts = [ p ]; size = cmd_size }

(* --- open-loop generation ----------------------------------------------------- *)

module Open_loop = struct
  type curve =
    | Constant of float
    | Ramp of { from_rate : float; to_rate : float; over : float }
    | Diurnal of { base : float; peak : float; period : float }
    | Storm of { base : float; peak : float; at : float; len : float }
    | Seq of (curve * float) list

  type op_kind = Read | Update | Insert | Scan

  type key_dist = Uniform | Zipf of float | Latest of float

  type arrival = {
    at : float;
    op : Simnet.payload;
    reads : Btree.Keyset.t;
    writes : Btree.Keyset.t;
    size : int;
  }

  type t = {
    ol_rng : Sim.Rng.t;
    ol_key_range : int;
    ol_read_pct : int;
    ol_span : int;
    ol_rate : curve;
    ol_zipf : Sim.Rng.Zipf.gen option;
    ol_hot : (float * float * int) option;  (* start, len, pct from hot 1% *)
    ol_ops : (op_kind * int) list option;  (* weighted mix; None = legacy *)
    ol_dist : key_dist;
    mutable ol_max_key : int;  (* highest key Insert has allocated *)
    mutable ol_fresh : int;  (* unique write values *)
    mutable ol_pending : arrival option;  (* one-slot lookahead for peek *)
    mutable ol_clock : float;
    mutable ol_generated : int;
  }

  let pi = 4.0 *. atan 1.0

  (* Segments of a [Seq] are half-open [start, start + dur): an instant
     landing exactly on a boundary belongs to the next segment only, so a
     boundary tick is never evaluated (or issued) under both curves.  The
     last segment keeps running on its local clock forever.  Inner curves
     see segment-local time, so Ramp/Storm offsets compose naturally. *)
  let rec rate_of curve now =
    match curve with
    | Constant r -> r
    | Ramp { from_rate; to_rate; over } ->
        if now >= over then to_rate
        else from_rate +. ((to_rate -. from_rate) *. now /. over)
    | Diurnal { base; peak; period } ->
        (* Sinusoidal day: base at the trough, peak at the crest. *)
        let phase = sin (2.0 *. pi *. now /. period) in
        base +. ((peak -. base) *. (0.5 *. (1.0 +. phase)))
    | Storm { base; peak; at; len } ->
        if now >= at && now < at +. len then peak else base
    | Seq segs ->
        let rec walk start = function
          | [] -> 0.0
          | [ (c, _) ] -> rate_of c (now -. start)
          | (c, d) :: rest ->
              if now < start +. d then rate_of c (now -. start)
              else walk (start +. d) rest
        in
        walk 0.0 segs

  let rate_at t now = rate_of t.ol_rate now

  let create ?(zipf_s = 0.0) ?(read_pct = 50) ?(query_span = 100) ?hot_storm
      ?ops ?dist rng ~key_range ~rate =
    let dist =
      match dist with
      | Some d -> d
      | None -> if zipf_s > 0.0 then Zipf zipf_s else Uniform
    in
    let zipf =
      match dist with
      | Zipf s | Latest s -> Some (Sim.Rng.Zipf.create rng ~n:key_range ~s)
      | Uniform -> None
    in
    { ol_rng = rng;
      ol_key_range = key_range;
      ol_read_pct = read_pct;
      ol_span = query_span;
      ol_rate = rate;
      ol_zipf = zipf;
      ol_hot = hot_storm;
      ol_ops = ops;
      ol_dist = dist;
      ol_max_key = key_range;
      ol_fresh = 0;
      ol_pending = None;
      ol_clock = 0.0;
      ol_generated = 0 }

  let draw_key t =
    let hot_now =
      match t.ol_hot with
      | Some (start, len, pct) ->
          t.ol_clock >= start
          && t.ol_clock < start +. len
          && Sim.Rng.int t.ol_rng 100 < pct
      | None -> false
    in
    if hot_now then
      (* Hot-partition storm: hammer the bottom 1% of the key space. *)
      1 + Sim.Rng.int t.ol_rng (Stdlib.max 1 (t.ol_key_range / 100))
    else
      match (t.ol_dist, t.ol_zipf) with
      | Latest _, Some z ->
          (* Skew towards the most recently inserted keys: the zipf draw is
             a recency rank counted down from the newest key. *)
          let rank = Sim.Rng.Zipf.draw z in
          Stdlib.max 1 (t.ol_max_key - rank)
      | _, Some z -> 1 + Sim.Rng.Zipf.draw z
      | _, None -> 1 + Sim.Rng.int t.ol_rng t.ol_key_range

  let fresh_value t =
    t.ol_fresh <- t.ol_fresh + 1;
    t.ol_fresh

  let read_arrival t key =
    { at = t.ol_clock;
      op = Btree_service.Query { lo = key; hi = key };
      reads = Btree.Keyset.singleton key;
      writes = Btree.Keyset.empty;
      size = cmd_size }

  let scan_arrival t key =
    let hi = Stdlib.min t.ol_max_key (key + t.ol_span - 1) in
    { at = t.ol_clock;
      op = Btree_service.Query { lo = key; hi };
      reads = Btree.Keyset.range ~lo:key ~hi;
      writes = Btree.Keyset.empty;
      size = cmd_size }

  let update_arrival t key =
    (* Updates read the key they overwrite (insert returns the old value),
       so they are read-modify-write for conflict purposes. *)
    { at = t.ol_clock;
      op = Btree_service.Insert { key; value = fresh_value t };
      reads = Btree.Keyset.singleton key;
      writes = Btree.Keyset.singleton key;
      size = cmd_size }

  let insert_arrival t =
    t.ol_max_key <- t.ol_max_key + 1;
    let key = t.ol_max_key in
    { at = t.ol_clock;
      op = Btree_service.Insert { key; value = fresh_value t };
      reads = Btree.Keyset.singleton key;
      writes = Btree.Keyset.singleton key;
      size = cmd_size }

  let mixed_arrival t ops =
    let total = List.fold_left (fun acc (_, w) -> acc + Stdlib.max 0 w) 0 ops in
    let roll = Sim.Rng.int t.ol_rng (Stdlib.max 1 total) in
    let kind =
      let rec pick acc = function
        | [] -> Read
        | (k, w) :: rest ->
            let acc = acc + Stdlib.max 0 w in
            if roll < acc then k else pick acc rest
      in
      pick 0 ops
    in
    match kind with
    | Read -> read_arrival t (draw_key t)
    | Scan -> scan_arrival t (draw_key t)
    | Update -> update_arrival t (draw_key t)
    | Insert -> insert_arrival t

  (* Advance the generator clock and produce one arrival.  Does NOT count
     it as generated: that happens when [next] hands it to the caller, so
     a lookahead the driver discards (first arrival past its horizon)
     never inflates the issued-ops denominator. *)
  let draw t =
    (* Poisson arrivals at the instantaneous rate: open loop, nothing waits
       for a response, so the generator stands in for an unbounded client
       population (a rate of 1e6/s models a million closed-loop clients at
       one command per second each). *)
    let rate = Stdlib.max 1e-9 (rate_at t t.ol_clock) in
    let dt = Sim.Rng.exponential t.ol_rng ~mean:(1.0 /. rate) in
    t.ol_clock <- t.ol_clock +. dt;
    match t.ol_ops with
    | Some ops -> mixed_arrival t ops
    | None ->
        (* Legacy mix: [read_pct] range scans, the rest single-key
           insert/delete read-modify-writes (draw-for-draw identical to the
           pre-mix generator, so seeded runs reproduce). *)
        let key = draw_key t in
        if Sim.Rng.int t.ol_rng 100 < t.ol_read_pct then begin
          let hi = Stdlib.min t.ol_key_range (key + t.ol_span - 1) in
          { at = t.ol_clock;
            op = Btree_service.Query { lo = key; hi };
            reads = Btree.Keyset.range ~lo:key ~hi;
            writes = Btree.Keyset.empty;
            size = cmd_size }
        end
        else begin
          let op =
            if Sim.Rng.bool t.ol_rng 0.5 then Btree_service.Insert { key; value = key }
            else Btree_service.Delete { key }
          in
          { at = t.ol_clock;
            op;
            reads = Btree.Keyset.singleton key;
            writes = Btree.Keyset.singleton key;
            size = cmd_size }
        end

  let next t =
    let a =
      match t.ol_pending with
      | Some a ->
          t.ol_pending <- None;
          a
      | None -> draw t
    in
    t.ol_generated <- t.ol_generated + 1;
    a

  let peek t =
    match t.ol_pending with
    | Some a -> a
    | None ->
        let a = draw t in
        t.ol_pending <- Some a;
        a

  let generated t = t.ol_generated
  let clock t = t.ol_clock
  let max_key t = t.ol_max_key
end
