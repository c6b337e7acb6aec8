(** Measurement helpers shared by every experiment.

    The conventions follow the paper's evaluation sections: throughput in
    megabits per second of application payload, latency in milliseconds,
    CPU as the fraction of wall (simulation) time a resource was busy.

    All accumulators are streaming and constant-memory: they bucket time
    into a fixed-width ring (default 100 ms buckets, ~102 s of history) so
    recording a sample is O(1) amortised and windowed queries are
    O(buckets), independent of how many samples were recorded.  Windows
    that reach further back than the retained horizon see zero
    contribution from the evicted region; every simulation in this repo
    runs far shorter than the default horizon. *)

(** Monotonically growing counter of events and bytes, with windowed
    rates and per-window time series (used for the timeline figures). *)
module Rate : sig
  type t

  (** [create ()] records nothing until the first {!add}.
      [bucket_width] (seconds, default 0.1) and [buckets] (default 1024)
      bound memory: only the last [bucket_width *. buckets] seconds are
      retained for windowed queries; lifetime totals are always exact. *)
  val create : ?bucket_width:float -> ?buckets:int -> unit -> t

  (** [add t ~now ~bytes] records one event of [bytes] payload at time [now]. *)
  val add : t -> now:float -> bytes:int -> unit

  (** [add_cell t ~now_cell ~bytes] is [add] with the timestamp read from
      the engine clock cell ({!Sim.Engine.now_cell}): no boxed float
      crosses the call, so the simnet packet path records rates with zero
      allocation.  Accounting is identical to [add ~now:now_cell.(0)]. *)
  val add_cell : t -> now_cell:float array -> bytes:int -> unit

  val events : t -> int
  val bytes : t -> int

  (** [mbps t ~from ~till] is payload throughput over the interval, in
      Mbps.  Exact when [from]/[till] fall on bucket edges; otherwise the
      edge buckets are prorated assuming uniform density. *)
  val mbps : t -> from:float -> till:float -> float

  (** [events_per_sec t ~from ~till] is the event rate over the interval. *)
  val events_per_sec : t -> from:float -> till:float -> float

  (** [series t ~window ~till] buckets recorded events into windows of
      [window] seconds from time 0 and returns [(window_end, mbps)] pairs. *)
  val series : t -> window:float -> till:float -> (float * float) list
end

(** Latency sample recorder with percentiles and CDF extraction.

    NaN samples are dropped on {!add} (tracked by {!dropped_nan}), so
    every derived statistic is well-defined; sorting uses [Float.compare]. *)
module Latency : sig
  type t

  (** [create ()] keeps every sample.  [create ~reservoir:k ()] keeps a
      uniform reservoir of at most [k] samples (Algorithm R, with a
      deterministic replacement stream) for multi-minute runs: {!count},
      {!mean} and {!max} stay exact, percentiles become estimates over
      the reservoir. *)
  val create : ?reservoir:int -> unit -> t

  val add : t -> float -> unit

  (** [count t] is the number of (non-NaN) samples recorded. *)
  val count : t -> int

  (** [dropped_nan t] is the number of NaN samples ignored by {!add}. *)
  val dropped_nan : t -> int

  (** [mean t] in the sample unit; [0.] when empty. *)
  val mean : t -> float

  (** [percentile t p] with [p] clamped to [\[0,1\]] (NaN treated as 0);
      [0.] when empty. *)
  val percentile : t -> float -> float

  (** [max t] is the largest sample ever recorded (exact even in
      reservoir mode); [0.] when empty. *)
  val max : t -> float

  (** [trimmed_mean t ~drop_top] is the mean after discarding the highest
      fraction [drop_top] of samples (the paper discards the top 5 % in the
      recoverable experiments). *)
  val trimmed_mean : t -> drop_top:float -> float

  (** [cdf t ~points] is an evenly spaced [(value, cum_fraction)] sketch. *)
  val cdf : t -> points:int -> (float * float) list
end

(** Busy-time accounting for a serially used resource (CPU, NIC, disk). *)
module Busy : sig
  type t

  (** Ring parameters as for {!Rate.create}. *)
  val create : ?bucket_width:float -> ?buckets:int -> unit -> t

  (** [add ~at t dur] accounts the busy interval [\[at, at +. dur)].
      Without [~at] the interval is assumed to start where the previous
      one ended (back-to-back work from time 0), which keeps legacy
      callers meaningful; timestamped attribution is strictly better. *)
  val add : ?at:float -> t -> float -> unit

  (** [add_at t ~now dur] is [add ~at:now t dur] without the optional
      argument: at most the box of [now] is allocated, none where the call
      is inlined.  Prefer it wherever the start time is known. *)
  val add_at : t -> now:float -> float -> unit

  (** [add_tk t ~start_tk ~dur_tk] accounts the busy interval starting at
      engine tick [start_tk] lasting [dur_tk] ticks (2^20 ticks/second).
      Identical accounting to {!add} over the equivalent floats, with an
      int-only signature so tick-grid resource acquisitions allocate
      nothing. *)
  val add_tk : t -> start_tk:int -> dur_tk:int -> unit

  val total : t -> float

  (** [utilization t ~from ~till] is busy time {e inside} the window
      divided by the window length, as a percentage clamped to
      [\[0,100\]].  Busy intervals are split exactly across buckets, so
      bucket-aligned windows are exact and unaligned window edges are
      prorated. *)
  val utilization : t -> from:float -> till:float -> float
end

(** One machine-readable metrics record for a measurement window,
    aggregating whichever of rate / latency / busy accumulators a run
    kept.  [bench/main.exe -- <exp> --json <file>] dumps a list of these. *)
module Snapshot : sig
  type t = {
    label : string;
    from_ : float;
    till : float;
    events : int;
    bytes : int;
    mbps : float;
    events_per_sec : float;
    lat_count : int;
    lat_mean : float;
    lat_p50 : float;
    lat_p95 : float;
    lat_p99 : float;
    lat_max : float;
    cpu_pct : float;
    counters : (string * int) list;
        (** protocol event counters (sorted name/count pairs), e.g. from
            {!Protocol.Counters.snapshot}; empty when a run kept none *)
  }

  (** [make ?rate ?latency ?busy ?counters ~label ~from ~till ()] evaluates
      the supplied accumulators over [\[from, till)]; omitted ones report
      zeros. *)
  val make :
    ?rate:Rate.t ->
    ?latency:Latency.t ->
    ?busy:Busy.t ->
    ?counters:(string * int) list ->
    label:string ->
    from:float ->
    till:float ->
    unit ->
    t

  (** [scalar ~label ()] records a row of already-reduced metrics — most
      experiments print derived throughput/latency scalars rather than
      keeping raw accumulators per row. *)
  val scalar :
    ?mbps:float ->
    ?events_per_sec:float ->
    ?lat_mean:float ->
    ?cpu_pct:float ->
    ?counters:(string * int) list ->
    label:string ->
    unit ->
    t

  (** [to_json t] is a single JSON object (no trailing newline). *)
  val to_json : t -> string
end
