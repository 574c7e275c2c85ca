(** The IPC process: one member of a distributed IPC facility.

    An IPC process integrates the three task sets of the paper,
    loosely coupled through the RIB and per-flow state:

    - {e IPC data transfer} — the {!Rmt} (relaying/multiplexing) and
      per-flow DTP;
    - {e IPC transfer control} — {!Efcp} retransmission/flow control;
    - {e IPC management} — RIEP over the {!Rib}: {!Enrollment},
      {!Routing_dir} (link-state routing and the directory),
      {!Liveness} and the flow allocator {!Flow_alloc}, each a module
      over the state that {!Member} holds.

    This module creates a process and wires its RMT, dispatches each
    management PDU to its task, and runs the lifecycle and the
    application interface.

    Applications interact only through {!register_app} and
    {!allocate_flow}, naming peers by {!Types.apn}.  Addresses exist
    in this interface solely for instrumentation ({!address} et al.);
    the {!flow} record visible to applications carries none.

    (N-1) connectivity is abstracted as {!Rina_sim.Chan.t}: a bottom
    ("shim") DIF binds physical media channels, a higher DIF binds
    flows of the DIF below wrapped by {!chan_of_flow} — this is the
    recursion of the architecture. *)

type t

(** What an application holds: one end of an allocated IPC channel.
    Port ids are local and dynamically assigned; no addresses. *)
type flow = {
  port_id : Types.port_id;
  qos : Qos.t;
  remote_app : Types.apn;
  send : bytes -> unit;  (** transmit one SDU (delimited internally) *)
  set_on_receive : (bytes -> unit) -> unit;  (** complete-SDU callback *)
  set_on_error : (string -> unit) -> unit;
      (** abort callback: fires (at most once) when EFCP gives up on
          the flow — persistent retransmission failure — after which
          the local endpoint is already closed *)
  close : unit -> unit;  (** deallocate both ends *)
  flow_metrics : unit -> Rina_util.Metrics.t;  (** EFCP counters *)
  congested : unit -> bool;
      (** whether the flow's EFCP is under congestion pressure
          ({!Efcp.congested}) — an upper DIF multiplexed over this
          flow consults it to push congestion up the stack *)
}

val create :
  Rina_sim.Engine.t ->
  ?credentials:string ->
  ?qos_cubes:Qos.t list ->
  ?rank:int ->
  name:Types.apn ->
  dif:Types.dif_name ->
  policy:Policy.t ->
  unit ->
  t
(** A fresh, unenrolled IPC process.  [credentials] is presented when
    enrolling (checked against the DIF's {!Policy.auth});
    [qos_cubes] defaults to {!Qos.standard_cubes}.  [rank] (default 0)
    is the DIF's depth in the stack, stamped on flight-recorder
    events. *)

val bootstrap : t -> unit
(** Make this process the founding member of its DIF: it assigns
    itself address 1 and starts accepting enrollments.
    @raise Invalid_argument if already enrolled. *)

val bind_port : t -> ?cost:float -> ?rate:float -> Rina_sim.Chan.t -> Types.port_id
(** Attach an (N-1) channel.  Identity hellos start immediately; if
    this process is unenrolled and the peer turns out to be a member,
    enrollment is initiated automatically over this port.  [cost]
    (default 1.0) is the routing metric of the adjacency; [rate]
    enables RMT shaping/scheduling on the port. *)

val set_auto_enroll : t -> bool -> unit
(** Whether seeing a member's hello triggers enrollment (default
    [true]; {!leave} clears it so a departure sticks). *)

val crash : t -> unit
(** Fail-stop: every piece of volatile state — flows, RIB, link-state
    database, address, enrollment — vanishes without any notification
    to the rest of the DIF, which must {e detect} the death (dead-peer
    timeout, LSA aging).  Timers keep ticking but no-op; the ingress
    filter drops everything.  Idempotent. *)

val restart : t -> unit
(** Bring a crashed process back as a blank, unenrolled member: it
    re-announces itself on its ports and re-enrolls on the next member
    hello, obtaining a {e fresh} address.  Applications registered
    before the crash survive and are republished in the directory once
    re-enrollment completes.  No-op unless crashed. *)

val is_up : t -> bool
(** [false] between {!crash} and {!restart}. *)

val leave : t -> unit
(** Graceful departure from the DIF (§5's lifecycle, completed): all
    registered applications are withdrawn from the directory, the
    member floods a final LSA with no neighbours (so routes through it
    vanish everywhere), open flows are closed, and the process reverts
    to the unenrolled state — a later hello from a member would let it
    re-enroll with a fresh address. *)

(* --- application interface (names only) --- *)

val register_app : t -> Types.apn -> on_flow:(flow -> unit) -> unit
(** Make an application reachable under its name in this DIF; the
    mapping is published in the distributed directory.  [on_flow]
    fires for each accepted incoming flow. *)

val unregister_app : t -> Types.apn -> unit

val allocate_flow :
  t ->
  src:Types.apn ->
  dst:Types.apn ->
  qos_id:Types.qos_id ->
  on_result:((flow, string) result -> unit) ->
  unit
(** Locate [dst] by name, verify it is reachable and access is
    permitted (the request travels to the destination — there is no
    DNS-style lookup-and-forget), allocate EFCP state on both ends and
    return the flow.  Fails with a reason otherwise (unknown name, no
    route, ACL denial, timeout). *)

val chan_of_flow : t -> flow -> Rina_sim.Chan.t
(** Repackage a flow of [t] as an (N-1) channel for a higher-rank DIF
    — the recursion step.  The channel's carrier reflects whether [t]
    still has any live point of attachment: when the node's last link
    in this DIF dies, local holders of flow-backed channels learn
    immediately (the system knows its own radios), while remote
    failures are still detected by the upper DIF's hello timers. *)

(* --- management / instrumentation (not part of the app-visible API) --- *)

val name : t -> Types.apn
val engine : t -> Rina_sim.Engine.t

val is_enrolled : t -> bool

val address : t -> Types.address
(** 0 until enrolled. *)

val on_enrolled : t -> (unit -> unit) -> unit
(** Run a hook once enrollment completes (immediately if already). *)

val neighbors : t -> (Types.address * Types.port_id list) list
(** Live adjacencies with their points of attachment (multiple ports
    to the same neighbour = multihoming). *)

val routing_table : t -> (Types.address * Types.address * float) list
(** (destination, next hop, cost) rows currently installed. *)

val path_health : t -> string list
(** One line per monitored path (port, Up/Suspect/Down, consecutive
    misses), sorted — empty until the multipath monitor has probed. *)

val rib : t -> Rib.t

val metrics : t -> Rina_util.Metrics.t
(** Management counters.  [spf_runs] counts route-recomputation events,
    one per burst of accepted LSAs and adjacency changes.  An event that
    finds the LSDB's graph ({!Routing.graph_version}) and this process's
    address unchanged since the last computation keeps the previous
    tables, so a refresh that re-floods unchanged neighbour lists costs
    no Dijkstra. *)

val rmt_metrics : t -> Rina_util.Metrics.t

val rmt_queue_depth : t -> int
(** Total PDUs waiting in this process's RMT shaper queues across all
    ports (0 when nothing is shaped) — what the congestion benches'
    queue-occupancy probes sample. *)

val flow_stats : t -> (Types.cep_id * int * int) list
(** [(cep, in_flight, backlog)] per open flow, sorted by cep — what the
    EFCP window-occupancy probes sample. *)

val policy : t -> Policy.t

val lsdb_size : t -> int
(** Link-state database entries (routing-state metric for C1). *)

val resolve_name : t -> Types.apn -> Types.address option
(** Directory lookup, exposed for tests. *)

val registered_apps : t -> Types.apn list
(** Application names registered at this process (sorted) — the
    registration metadata the whole-topology verifier reads. *)

val debug_flows : t -> string list
(** One line of EFCP internal state per live flow endpoint. *)
