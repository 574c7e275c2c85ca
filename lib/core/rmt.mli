(** Relaying and Multiplexing Task.

    The short-timescale forwarding engine of an IPC process: it owns
    the (N-1) ports, serialises PDUs (with SDU protection) onto them,
    decodes arriving frames, delivers PDUs addressed to this IPC
    process upward, and relays the rest using a forwarding function
    installed by the management task.

    Multiplexing policy is pluggable ({!Policy.scheduler}): when a port
    is given a [rate], the RMT shapes departures and applies FIFO,
    strict-priority or weighted deficit-round-robin service among QoS
    classes — the knob experiment C3 turns. *)

type t

val queue_capacity : int
(** Hard per-class queue bound (PDUs) on shaped ports; arrivals beyond
    it are dropped.  Exported for the policy linter: a [mark_threshold]
    at or above it can never mark before overflowing. *)

val create :
  Rina_sim.Engine.t ->
  own_address:(unit -> Types.address) ->
  scheduler:Policy.scheduler ->
  ?congestion:Policy.congestion ->
  ?label:string ->
  ?rank:int ->
  unit ->
  t
(** [own_address] is consulted per PDU (it changes at enrollment).
    [congestion] (default {!Policy.default_congestion}, everything
    off) enables ECN-style marking on shaped ports: a Dtp frame
    joining a class queue at or over [mark_threshold] is marked with
    probability [mark_probability] (counter [ecn_marked]), and
    overflow of such a queue is accounted [R_congestion] (counter
    [congestion_dropped]) instead of plain [R_queue_full].  Marking
    draws from a private deterministic stream seeded from [label], so
    identical runs mark identical PDUs.  [label] (default ["rmt"])
    prefixes the flight-recorder component name, which is
    [label ^ "@" ^ address]; [rank] stamps events with the DIF rank. *)

val set_forwarding : t -> (Pdu.t -> Types.port_id option) -> unit
(** Install the relaying decision (management task supplies it;
    [None] = no route). *)

val set_deliver : t -> (Types.port_id option -> Pdu.t -> unit) -> unit
(** Upward delivery: PDUs whose [dst_addr] is this process or 0
    (neighbour scope).  The port argument is [Some p] for PDUs that
    arrived from below, [None] for locally-looped PDUs. *)

val set_classify : t -> (Pdu.t -> int) -> unit
(** Map a PDU to a scheduling class in \[0,7\] (default: class 0). *)

val set_ingress_filter : t -> (Types.port_id -> Pdu.t -> bool) -> unit
(** Gate applied to every PDU arriving from below *before* delivery or
    relaying.  The management task uses it to drop traffic from ports
    whose peer has not been authenticated as a DIF member — the
    structural security property of §6.1.  Rejected PDUs count as
    [ingress_dropped]. *)

val add_port : t -> ?rate:float -> Rina_sim.Chan.t -> Types.port_id
(** Bind an (N-1) flow as a port.  [rate] in bits/s enables shaping
    and scheduling on that port; without it frames go straight to the
    channel. *)

val remove_port : t -> Types.port_id -> unit

val ports : t -> Types.port_id list
(** Currently bound ports, sorted. *)

val set_drop_reason : t -> (Pdu.t -> Rina_util.Flight.reason) -> unit
(** Refine the drop reason recorded when forwarding returns no port:
    the management task answers [R_path_down] when the destination is
    routed but every member path is Down (multipath monitor), and
    [R_no_route] otherwise (the default).  The refined reason also
    splits the metric: [path_down_dropped] vs [no_route]. *)

val send : t -> Pdu.t -> Types.port_id option
(** Route-or-deliver a locally originated PDU: destination may be this
    very process (looped up), a neighbour or any remote member.
    Returns the egress port the PDU was queued on, [None] for local
    delivery or a drop — the path tag EFCP keeps per outstanding PDU
    so failover can re-stripe exactly the stranded ones. *)

val send_on_port : t -> Types.port_id -> Pdu.t -> unit
(** Neighbour-scope transmission on an explicit port (hellos,
    enrollment); bypasses forwarding. *)

val queue_depth : t -> Types.port_id -> int
(** PDUs waiting in the shaper queues of a port (0 for unshaped). *)

val metrics : t -> Rina_util.Metrics.t
(** [relayed], [delivered_up], [no_route], [path_down_dropped],
    [ttl_expired], [crc_dropped], [decode_dropped], [queue_dropped],
    [sent], and per-port egress counters [sent_port<id>]... *)
