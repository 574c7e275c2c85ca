(** Scenario plumbing: synchronous-looking wrappers that drive the
    virtual clock until an asynchronous operation completes. *)

val open_flow :
  Topo.rina_net ->
  src:int ->
  dst:int ->
  qos_id:Rina_core.Types.qos_id ->
  ?sink:Workload.sink ->
  unit ->
  (Rina_core.Ipcp.flow * float, string) result
(** Register an echo-less sink app on node [dst], allocate a flow from
    node [src] and drive the engine until the allocation resolves.
    Returns the flow and the allocation latency (s).  If [sink] is
    given, every SDU arriving at [dst] is accounted there. *)

val allocate :
  Topo.rina_net ->
  src:int ->
  dst_app:Rina_core.Types.apn ->
  qos_id:Rina_core.Types.qos_id ->
  ((Rina_core.Ipcp.flow, string) result -> unit) ->
  unit
(** Raw allocation from node [src] towards an already-registered
    application name; drives the engine until the callback fires. *)

(** {1 Chaos hooks}

    Node- and topology-level fault closures for a
    {!Rina_sim.Fault.t} plan — the layer glue the fault module itself
    deliberately lacks.  All of them only {e record} steps; nothing
    happens until the plan is armed on the engine. *)

val void_links_toward : Topo.rina_net -> int -> unit
(** Kill every frame currently in flight toward node [node] on its
    incident links ({!Rina_sim.Link.crash_endpoint}) — including
    mangler holdbacks — so a later restart with a fresh address never
    receives pre-crash traffic.  Called by the crash hooks below;
    exposed for hand-built crash closures. *)

val crash_node : Topo.rina_net -> Rina_sim.Fault.t -> at:float -> node:int -> unit
(** Schedule a fail-stop crash ({!Rina_core.Ipcp.crash}) of node
    [node] at virtual time [at]; frames already in flight toward the
    node die with [R_endpoint_crash] ({!void_links_toward}).  Crashing
    node 0 (the DIF's founding member, which runs address allocation)
    prevents later re-enrollments — chaos plans normally protect it. *)

val restart_node : Topo.rina_net -> Rina_sim.Fault.t -> at:float -> node:int -> unit
(** Schedule the matching {!Rina_core.Ipcp.restart} (recorded as a
    heal of ["crash-n<node>"]). *)

val crash_window :
  Topo.rina_net -> Rina_sim.Fault.t -> at:float -> until:float -> node:int -> unit
(** Crash at [at], restart at [until]. *)

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
