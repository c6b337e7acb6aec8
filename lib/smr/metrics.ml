type t = {
  engine : Sim.Engine.t;
  rate : Sim.Stats.Rate.t;
  lat : Sim.Stats.Latency.t;
}

let create engine =
  { engine;
    rate = Sim.Stats.Rate.create ();
    lat = Sim.Stats.Latency.create () }

let command t ~born ~bytes =
  let now = Sim.Engine.now t.engine in
  Sim.Stats.Rate.add t.rate ~now ~bytes;
  Sim.Stats.Latency.add t.lat (now -. born)

let completed t = Sim.Stats.Rate.events t.rate
let kcps t ~from ~till = Sim.Stats.Rate.events_per_sec t.rate ~from ~till /. 1e3
let mbps t ~from ~till = Sim.Stats.Rate.mbps t.rate ~from ~till
let lat_mean_ms t = Sim.Stats.Latency.mean t.lat *. 1e3
