(** Core YCSB workloads A–E (Cooper et al., SoCC'10) as presets over
    {!Smr.Workload.Open_loop}: weighted read/update/insert/scan mixes over
    zipf or latest-key distributions.  [workload] builds a generator the
    {!Kv} system drives open-loop.  YCSB-F (read-modify-write) is left
    out: without a read-then-write command it would replay A exactly. *)

type preset = A | B | C | D | E

val all : preset list

(** "ycsb-a" ... "ycsb-e". *)
val name : preset -> string

(** Accepts "ycsb-a" or the shorthand "a". *)
val of_name : string -> preset option

val describe : preset -> string

val ops : preset -> (Smr.Workload.Open_loop.op_kind * int) list
val dist : preset -> Smr.Workload.Open_loop.key_dist

(** [workload p rng ~rate] — [key_range] defaults to 100k preloadable
    keys, [query_span] to 50-key scans (workload E). *)
val workload :
  ?key_range:int ->
  ?query_span:int ->
  preset ->
  Sim.Rng.t ->
  rate:Smr.Workload.Open_loop.curve ->
  Smr.Workload.Open_loop.t
