(** The state every task of an IPC process shares, and the per-PDU
    decisions that read it.

    One record holds a member's ports, flows, RIB, link-state database
    and routes.  The task modules ({!Routing_dir}, {!Enrollment},
    {!Liveness}, {!Flow_alloc}) read and update it, and {!Ipcp} wires
    them to the RMT.  This module also sends and floods management
    PDUs, observes RIB and LSA changes for the flight recorder and the
    sanitizer, chooses the next hop and point of attachment for each
    PDU (Fig. 4), and keeps the table of RIEP requests awaiting a
    reply. *)

(** Short names for the libraries every task module uses. *)

module Chan = Rina_sim.Chan
module Engine = Rina_sim.Engine
module Metrics = Rina_util.Metrics
module Flight = Rina_util.Flight

(** The application's end of a flow; {!Ipcp.flow} documents the
    fields. *)
type flow = {
  port_id : Types.port_id;
  qos : Qos.t;
  remote_app : Types.apn;
  send : bytes -> unit;
  set_on_receive : (bytes -> unit) -> unit;
  set_on_error : (string -> unit) -> unit;
  close : unit -> unit;
  flow_metrics : unit -> Metrics.t;
  congested : unit -> bool;
}

(** Per-flow endpoint state. *)
type flow_state = {
  fs_port : Types.port_id;
  fs_local_cep : Types.cep_id;
  fs_remote_cep : Types.cep_id;
  fs_remote_addr : Types.address;
  fs_local_app : Types.apn;
  fs_remote_app : Types.apn;
  fs_qos : Qos.t;
  fs_efcp : Efcp.t;
  fs_reasm : Delimiting.reassembler;
  mutable fs_on_receive : bytes -> unit;
  mutable fs_on_error : string -> unit;
  mutable fs_closed : bool;
}

type app_reg = { ar_name : Types.apn; ar_on_flow : flow -> unit }

(** Management view of an RMT port. *)
type nport = {
  np_id : Types.port_id;
  np_chan : Chan.t;
  np_cost : float;
  mutable np_peer : Types.address;  (** 0 until the peer's hello *)
  mutable np_last_hello : float;
  mutable np_last_seen : float;
      (** any proof of life: hello, keepalive probe or reply *)
}

type enroll_state = E_none | E_pending of Types.port_id

type requests
(** The RIEP requests awaiting a reply, and the invoke-id counter. *)

type t = {
  engine : Engine.t;
  name : Types.apn;
  dif : Types.dif_name;
  policy : Policy.t;
  credentials : string;
  qos_cubes : Qos.t list;
  rib : Rib.t;
  rmt : Rmt.t;
  lsdb : Routing.t;
  metrics : Metrics.t;
  flight : Flight.recorder;
  rank : int;
  nports : (Types.port_id, nport) Hashtbl.t;
  flows : (Types.cep_id, flow_state) Hashtbl.t;
  apps : (string, app_reg) Hashtbl.t;
  requests : requests;
  mutable address : Types.address;
  mutable enrolled : bool;
  mutable enroll_state : enroll_state;
  mutable next_cep : int;
  mutable next_flow_port : int;
  mutable next_hops : Routing.next_hops;
  mutable ecmp_hops : (Types.address, Types.address list * float) Hashtbl.t;
  mutable routes_version : int;
  mutable routes_address : Types.address;
  mutable chosen_poa : (Types.address, Types.port_id) Hashtbl.t;
  mutable own_lsa_seq : int;
  mutable last_adjacency : (Types.address * float) list;
  mutable recompute_scheduled : bool;
  mutable enrolled_hooks : (unit -> unit) list;
  mutable hello_ticks : int;
  mutable ae_round : int;
  mutable auto_enroll : bool;
  mutable isolation_watchers : (bool -> unit) list;
  mutable was_attached : bool;
  mutable up : bool;
  rng : Rina_util.Prng.t;
      (** enrollment and busy backoff jitter, seeded from (dif, name) *)
  mpath : Multipath.t;
}

val create :
  Engine.t ->
  credentials:string ->
  qos_cubes:Qos.t list ->
  rank:int ->
  name:Types.apn ->
  dif:Types.dif_name ->
  policy:Policy.t ->
  t
(** A fresh, unenrolled member; nothing is wired to its RMT yet. *)

(** {2 Observed changes} *)

val flight_comp : t -> string
(** The member's flight-recorder component, ["<dif>:<name>"]. *)

val flight_emit : t -> flow:int -> Flight.kind -> unit
(** Emit one of the member's own events; call under [Flight.on]. *)

val rib_written : t -> string -> unit
(** Record a write of the RIB object at a path (checked by
    [SAN_RIB_PATH]). *)

val rib_write : t -> string -> Rib.value -> unit
(** {!Rib.write}, recorded. *)

val rib_delete : t -> string -> bool
(** {!Rib.delete}, recorded. *)

val install_lsa : t -> Routing.Lsa.t -> bool
(** {!Routing.install}, recorded when accepted. *)

(** {2 Ports and forwarding} *)

val qos_cube : t -> Types.qos_id -> Qos.t
(** The member's cube of that id, best effort if unknown. *)

val nport_alive : t -> nport -> bool
(** The port's carrier is up and its last hello is within
    [dead_interval]. *)

val adjacent : t -> nport -> bool
(** A live port with a known peer. *)

val adjacency_set : t -> (Types.address * float) list
(** Live (neighbour, cost) pairs, cheapest port per neighbour, sorted. *)

val has_live_adjacency : t -> bool
(** [adjacency_set t <> []], without building the set. *)

val adjacent_ports : t -> nport list

val forward : t -> Pdu.t -> Types.port_id option
(** The RMT's forwarding function: next hop, then point of attachment. *)

val unroutable_reason : t -> Pdu.t -> Flight.reason
(** The RMT's drop reason for a PDU {!forward} cannot place. *)

(** {2 Management PDUs} *)

val send_mgmt : t -> dst:Types.address -> Riep.t -> unit
(** Send a RIEP message routed to [dst]. *)

val send_mgmt_on_port : t -> port:Types.port_id -> Riep.t -> unit
(** Send a neighbour-scope RIEP message on one port. *)

val flood : t -> ?except_port:Types.port_id -> ?tally:string -> Riep.t -> unit
(** Send to every live adjacency but [except_port], bumping [tally]
    once per copy. *)

(** {2 Outstanding requests}

    Address grants and flow set-ups share one invoke-id counter and one
    table.  A reply completes the request its invoke id names only if it
    carries that request's object class. *)

val fresh_invoke : t -> int

val await :
  t ->
  int ->
  obj_class:string ->
  delay:float ->
  on_timeout:(unit -> unit) ->
  (Riep.t -> unit) ->
  unit
(** [await t invoke ~obj_class ~delay ~on_timeout reply] enters request
    [invoke]: the first reply of class [obj_class] within [delay]
    seconds goes to [reply], or the request is dropped and [on_timeout]
    runs. *)

val answer : t -> Riep.t -> unit
(** Deliver a reply to the request it names; ignored if no request of
    its class is outstanding under its invoke id. *)

val cancel_requests : t -> unit
(** Drop every outstanding request and its timeout (a crash). *)
