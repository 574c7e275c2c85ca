(* Policy-driven observability wiring: one call turns a policy's
   [telemetry] section into an attached trace (sampled, ring-bounded or
   streaming) plus a live telemetry registry and its snapshot timer.
   Lives in rina_exp because policy is a rina_core concern and the
   recorder plumbing is rina_util/rina_sim — this is the layer that
   sees both. *)

module Engine = Rina_sim.Engine
module Trace = Rina_sim.Trace
module Telemetry = Rina_util.Telemetry
module Policy = Rina_core.Policy

type t = {
  engine : Engine.t;
  trace : Trace.t;
  telemetry : Telemetry.t;
  config : Policy.telemetry;
}

let start ?(policy = Policy.default) ?stream engine =
  let cfg = policy.Policy.telemetry in
  if not (cfg.Policy.trace_sample_rate > 0. && cfg.Policy.trace_sample_rate <= 1.)
  then
    invalid_arg
      (Printf.sprintf "Obs.start: trace_sample_rate %g is outside (0, 1]"
         cfg.Policy.trace_sample_rate);
  if cfg.Policy.flight_ring_capacity < 0 then
    invalid_arg "Obs.start: negative flight_ring_capacity";
  let ring =
    if cfg.Policy.flight_ring_capacity > 0 then
      Some cfg.Policy.flight_ring_capacity
    else None
  in
  let trace = Trace.create ?ring_capacity:ring engine in
  let telemetry = Telemetry.create () in
  Trace.attach ~sample_rate:cfg.Policy.trace_sample_rate ~telemetry ?stream trace;
  { engine; trace; telemetry; config = cfg }

let snapshots t ~until =
  if t.config.Policy.snapshot_interval > 0. then
    Trace.snapshots t.trace ~interval:t.config.Policy.snapshot_interval ~until

let stop t = Trace.close t.trace
