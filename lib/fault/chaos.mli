(** Seeded chaos scenarios: one deterministic fault schedule per
    (protocol, seed) pair, audited by {!Safety} (atomic-broadcast
    invariants) plus scenario-specific oracles.  The faults each scenario
    injects and the invariants it checks are tabled in CORRECTNESS.md,
    "Fault matrix".  Load always stops at 60 % of the run and all faults
    heal by 80 %, leaving a quiescence window in which uniform agreement
    must be restored.

    Re-running a (protocol, seed) pair replays the identical fault
    timeline — the seed is the repro. *)

type outcome = {
  protocol : string;
  seed : int;
  ok : bool;
  summary : string;  (** counts fragment for the verdict line *)
  violations : string list;
  events : (float * string) list;  (** the fault timeline *)
}

(** Scenario names accepted by {!run_one}, in report order. *)
val protocols : string list

(** [run_one ~protocol ~seed ~duration ()] builds a fresh simulation,
    runs the scenario and returns its verdict.
    @raise Invalid_argument on an unknown protocol name. *)
val run_one : protocol:string -> seed:int -> duration:float -> unit -> outcome

(** [run_all ~protocols ~seeds ~duration ()] runs seeds [0..seeds-1] for
    each protocol, prints one verdict line per run and a final summary;
    returns the number of failed runs. *)
val run_all : protocols:string list -> seeds:int -> duration:float -> unit -> int
