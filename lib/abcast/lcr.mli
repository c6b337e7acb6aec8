(** LCR — ring-based, communication-history atomic broadcast
    (Guerraoui et al.), the paper's strongest throughput comparator.

    All [n] processes form a ring and every process may broadcast.  A
    message body travels the ring exactly once (each link carries each byte
    once, which is why LCR's efficiency exceeds 90 %); delivery order is by
    logical timestamp, and a message is delivered once the process knows no
    earlier-stamped message can still arrive — stability is propagated by
    small clock announcements that circulate the ring, giving the
    characteristic two-revolution delivery latency (Table 3.1).

    Simplification versus the original: LCR piggybacks vector clocks on the
    bodies; we gossip Lamport clocks in dedicated small messages, which has
    the same network cost shape.  LCR assumes perfect failure detection:
    {!kill} reconfigures the ring through an oracle, and in-transit messages
    may be lost (the paper's Table 3.1 notes this strong-synchrony
    weakness). *)

type t

type config = {
  n : int;  (** ring size; every process is broadcaster and deliverer *)
  durability : Ringpaxos.Mring.durability;
}

val default_config : config

val create :
  Simnet.t ->
  config ->
  deliver:(learner:int -> Paxos.Value.t -> unit) ->
  t

(** [broadcast t ~from ~size app] injects a message at process [from];
    returns false when the process's client buffer is full. *)
val broadcast : t -> from:int -> size:int -> Simnet.payload -> bool

val proc : t -> int -> Simnet.proc
val kill : t -> int -> unit
val delivered : t -> int

(** Disk of process [i] (durable mode). *)
val disk : t -> int -> Storage.Disk.t option
