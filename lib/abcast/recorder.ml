type t = {
  engine : Sim.Engine.t;
  rate : Sim.Stats.Rate.t;
  lat : Sim.Stats.Latency.t;
}

let create engine =
  { engine; rate = Sim.Stats.Rate.create (); lat = Sim.Stats.Latency.create () }

let item t (it : Paxos.Value.item) =
  let now = Sim.Engine.now t.engine in
  Sim.Stats.Rate.add t.rate ~now ~bytes:it.isize;
  Sim.Stats.Latency.add t.lat (now -. it.born)

let value t (v : Paxos.Value.t) = List.iter (item t) v.items

let mbps t ~from ~till = Sim.Stats.Rate.mbps t.rate ~from ~till
let msgs_per_sec t ~from ~till = Sim.Stats.Rate.events_per_sec t.rate ~from ~till
let items t = Sim.Stats.Rate.events t.rate
let bytes t = Sim.Stats.Rate.bytes t.rate
let lat_mean_ms t = Sim.Stats.Latency.mean t.lat *. 1e3
let lat_trimmed_ms t = Sim.Stats.Latency.trimmed_mean t.lat ~drop_top:0.05 *. 1e3
let series t ~window ~till = Sim.Stats.Rate.series t.rate ~window ~till

let lat_cdf t ~points =
  List.map (fun (v, f) -> (v *. 1e3, f)) (Sim.Stats.Latency.cdf t.lat ~points)
