type item = { uid : int; isize : int; app : Simnet.payload; born : float }

(* Item uids pack a per-protocol sequence number above the id of the
   originating proposer (ring position for U-Ring), so every consumer that
   routes acknowledgments or responses can recover the origin without extra
   message fields.  20 bits of origin support ~1M proposers — the open-loop
   workloads stand in for millions of clients, and the previous 8-bit field
   silently wrapped past 255 proposers, routing responses to the wrong
   client. *)
let origin_bits = 20
let origin_mask = (1 lsl origin_bits) - 1
let make_uid ~seq ~origin = (seq lsl origin_bits) lor (origin land origin_mask)
let uid_origin uid = uid land origin_mask
let uid_seq uid = uid lsr origin_bits

type t = { vid : int; size : int; items : item list }

let make ~vid items =
  let size = List.fold_left (fun acc i -> acc + i.isize) 0 items in
  { vid; size; items }

let single ~vid ~uid ~size ~born app =
  { vid; size; items = [ { uid; isize = size; app; born } ] }

let skip ~vid = { vid; size = 0; items = [] }
