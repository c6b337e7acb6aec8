(** High-Performance State-Machine Replication — public facade.

    This library reproduces Marandi & Pedone's {e High-Performance
    State-Machine Replication} (DSN 2011 line of work): the Ring Paxos
    family of atomic broadcast protocols, SMR with speculative execution and
    state partitioning, Multi-Ring Paxos atomic multicast and Parallel SMR,
    all running on a deterministic discrete-event network simulator.  The
    replicated service is {!Kv}: Multi-Ring ordering, a parallel executor,
    a B+-tree and a lease tier for local reads.

    Quick start:
    {[
      let env = Hpsmr.Env.create ~seed:42 () in
      let kv = Hpsmr.Kv.create env.net Hpsmr.Kv.default_config ~n_clients:1 in
      Hpsmr.Kv.put kv ~key:1 ~value:10 ~k:(fun _ ->
          Hpsmr.Kv.get kv ~key:1 ~k:(fun v -> ...));
      Hpsmr.Env.run env ~for_:1.0
    ]}

    The re-exported libraries below are the implementation itself, not
    wrappers. *)

(** {1 Re-exported libraries} *)

module Sim = Sim
(** Discrete-event engine, RNG, statistics. *)

module Trace = Trace
(** Causal span tracing with a Chrome trace export. *)

module Simnet = Simnet
(** Simulated network: nodes, processes, unicast/multicast, failures. *)

module Storage = Storage
(** Simulated disks. *)

module Paxos = Paxos
(** Basic Paxos (Algorithm 1) and consensus values. *)

module Ringpaxos = Ringpaxos
(** M-Ring Paxos and U-Ring Paxos — the core contribution. *)

module Abcast = Abcast
(** Baseline atomic broadcast protocols, presets, measurement helpers. *)

module Btree = Btree
(** The in-memory B+-tree service. *)

module Smr = Smr
(** State-machine replication with speculation and partitioning (Ch. 4). *)

module Multiring = Multiring
(** Multi-Ring Paxos atomic multicast (Ch. 5). *)

module Psmr = Psmr
(** Parallel SMR (Ch. 6). *)

module Kv = Kv
(** The replicated key-value service: YCSB load, point ops, leases. *)

module Cloud = Cloud
(** Cloud evaluation harness (Ch. 7). *)

module Fault = Fault
(** Fault injection, the safety auditor and the chaos harness. *)

(** {1 Convenience environment} *)

module Env : sig
  type t = { engine : Sim.Engine.t; net : Simnet.t; rng : Sim.Rng.t }

  (** [create ~seed ()] builds a deterministic simulation environment on a
      gigabit LAN. *)
  val create : ?seed:int -> ?config:Simnet.config -> unit -> t

  (** [run env ~for_] advances the simulation by [for_] seconds. *)
  val run : t -> for_:float -> unit

  val now : t -> float
end
