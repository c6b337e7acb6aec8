module Sim = Sim
module Trace = Trace
module Simnet = Simnet
module Storage = Storage
module Paxos = Paxos
module Ringpaxos = Ringpaxos
module Abcast = Abcast
module Btree = Btree
module Smr = Smr
module Multiring = Multiring
module Psmr = Psmr
module Kv = Kv
module Cloud = Cloud
module Fault = Fault

module Env = struct
  type t = { engine : Sim.Engine.t; net : Simnet.t; rng : Sim.Rng.t }

  let create ?(seed = 1) ?config () =
    let engine = Sim.Engine.create () in
    let rng = Sim.Rng.create seed in
    let net = Simnet.create ?config engine rng in
    { engine; net; rng }

  let run t ~for_ = Sim.Engine.run t.engine ~until:(Sim.Engine.now t.engine +. for_)
  let now t = Sim.Engine.now t.engine
end
