(** Scenario plumbing: synchronous-looking wrappers that drive the
    virtual clock until an asynchronous operation completes. *)

val drive_until :
  Rina_sim.Engine.t -> ?step:float -> timeout:float -> (unit -> bool) -> unit
(** Run the engine [step] seconds at a time (default 0.05) until the
    condition holds or [timeout] seconds of virtual time have passed.
    The condition is tested before every step, so a condition that
    already holds runs nothing. *)

val connect :
  Rina_sim.Engine.t ->
  src:Rina_core.Ipcp.t * Rina_core.Types.apn ->
  dst:Rina_core.Ipcp.t * Rina_core.Types.apn ->
  qos_id:Rina_core.Types.qos_id ->
  on_flow:(Rina_core.Ipcp.flow -> unit) ->
  (Rina_core.Ipcp.flow, string) result
(** Register the destination application (its accepted flows go to
    [on_flow]), then the source application, allocate a flow from the
    source to the destination name and drive the engine every 0.05 s
    until the allocation resolves, for at most 30 s of virtual time. *)

val open_flow :
  Topo.rina_net ->
  src:int ->
  dst:int ->
  qos_id:Rina_core.Types.qos_id ->
  ?sink:Workload.sink ->
  unit ->
  (Rina_core.Ipcp.flow * float, string) result
(** {!connect} an app [client-n<src>] on node [src] to an app
    [sink-n<dst>] on node [dst].  Returns the flow and the allocation
    latency (s).  If [sink] is given, every SDU arriving at [dst] is
    accounted there. *)

(** {1 Chaos hooks}

    Node- and topology-level fault closures for a {!Rina_sim.Fault.t}
    plan — the layer glue the fault module itself deliberately lacks.
    They only {e record} steps; nothing happens until the plan is armed
    on the engine. *)

val straddling_links : Topo.rina_net -> group:int list -> Rina_sim.Link.t list
(** The links with exactly one endpoint in [group] (node indexes) —
    the cut set of the partition separating [group] from the rest.
    @raise Invalid_argument on an out-of-range index. *)

val partition :
  Topo.rina_net ->
  Rina_sim.Fault.t ->
  at:float ->
  until:float ->
  group:int list ->
  unit
(** Network partition: every straddling link loses carrier for the
    window and heals at [until]. *)

val random_plan :
  Topo.rina_net ->
  ?protect:int list ->
  rng:Rina_util.Prng.t ->
  horizon:float ->
  faults:int ->
  unit ->
  Rina_sim.Fault.t
(** A randomized plan of [faults] faults (link flap, blackhole,
    degradation, node crash+restart) with start times and durations
    drawn from [rng] inside the next [horizon] seconds; every fault
    heals before [0.9 * horizon] so recovery is observable.  Nodes in
    [protect] (default [[0]], the address allocator) are never
    crashed.  Same seed, same topology — identical plan
    ({!Rina_sim.Fault.events}). *)

val sum_metric : Topo.rina_net -> string -> int
(** Sum a management-metric counter over all nodes. *)

val sum_rmt_metric : Topo.rina_net -> string -> int
