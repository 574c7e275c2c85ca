(** Runtime invariant checking over a live simulation.

    The low-cost check sites live inside the components themselves
    ({!Rina_sim.Engine} clock monotonicity and event-heap order,
    {!Rina_sim.Link} PDU conservation counters, {!Rina_core.Efcp}
    window invariants, {!Rina_core.Member}'s RIB object-name
    well-formedness), all guarded by the engine's
    [Rina_util.Invariant] context ({!Rina_sim.Engine.checks}) — one
    branch each when disabled.  This module is the front end: switch
    checking on for an engine, run the scenario, and collect every
    violation as a structured {!Diag.t}, plus end-of-run audits that
    need whole-run state.

    Typical use in a test or experiment:
    {[
      let engine = Engine.create () in
      Sanitizer.enable engine;
      ... build and run the scenario to drain ...
      let diags = Sanitizer.violations engine @ Sanitizer.audit_link link in
      Sanitizer.disable engine;
      assert (diags = [])
    ]} *)

val enable : Rina_sim.Engine.t -> unit
(** Switch the engine's invariant checking on and clear previously
    recorded violations.  Enable straight after [Engine.create], before
    building the scenario, so conservation counters see every frame. *)

val disable : Rina_sim.Engine.t -> unit

val enabled : Rina_sim.Engine.t -> bool

val reset : Rina_sim.Engine.t -> unit
(** Forget recorded violations without changing the switch. *)

val violations : Rina_sim.Engine.t -> Diag.t list
(** Everything the engine's components recorded since the last
    {!enable}/{!reset}, as [Error] diagnostics ([SAN_CLOCK],
    [SAN_HEAP], [SAN_EFCP_SEQ], [SAN_EFCP_WINDOW], [SAN_EFCP_RCVBUF],
    [SAN_RIB_PATH], ...) with occurrence counts folded into the
    message. *)

val audit_link : ?label:string -> Rina_sim.Link.t -> Diag.t list
(** PDU-conservation audit ([SAN_PDU_CONSERVATION]): call once the
    event queue has drained; in each direction every injected frame
    must be accounted delivered or dropped.  Meaningful only if
    checking was enabled before the link carried traffic. *)

val audit_drained : Rina_sim.Engine.t -> Diag.t list
(** [SAN_PENDING]: warns when events are still queued — conservation
    audits run on a non-quiescent simulation undercount in-flight
    frames. *)

val check_routing_loops :
  (Rina_core.Types.address * Rina_core.Routing.next_hops) list -> Diag.t list
(** Walk every (source, destination) pair across the forwarding tables
    of all nodes: following next hops must reach the destination
    without revisiting a node.  Reports [SAN_ROUTE_LOOP] (error) for
    cycles and [SAN_ROUTE_BLACKHOLE] (warning) when a path dead-ends
    at a node with no route onward. *)

val rules : Diag.rule list
(** The stable [SAN_*] code table for [rina_lint --list-rules]. *)
