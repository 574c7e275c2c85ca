(** A host or router in the baseline TCP/IP stack.

    Interfaces bind {!Rina_sim.Chan.t} endpoints and *each carries its
    own address* — the interface-naming model whose consequences
    (multihoming and mobility failures) the experiments measure.
    Routers are nodes with [forwarding] on; forwarding consults a
    longest-prefix-match table filled statically or by {!Dv}. *)

type t

(** One routing-table entry. *)
type route = {
  rt_if : int;                  (** outgoing interface *)
  rt_next_hop : Ip.addr option; (** [None] = directly connected *)
  rt_metric : int;
  rt_learned_from : Ip.addr option;  (** DV neighbour, [None] = static *)
  mutable rt_expires : float;   (** absolute time; [infinity] = static *)
}

val create : Rina_sim.Engine.t -> ?forwarding:bool -> string -> t
(** Hosts: [forwarding] false (default); routers: true. *)

val engine : t -> Rina_sim.Engine.t
val node_name : t -> string

val add_iface : t -> Rina_sim.Chan.t -> addr:Ip.addr -> prefix:Ip.prefix -> int
(** Attach a link; installs the connected route; returns the interface
    id. *)

val set_iface_addr : t -> int -> addr:Ip.addr -> prefix:Ip.prefix -> unit
(** Renumber an interface (what a mobile must do in a foreign
    network); the old connected route is replaced. *)

val iface_addr : t -> int -> Ip.addr option
val is_local : t -> Ip.addr -> bool

val add_static_route : t -> Ip.prefix -> ?next_hop:Ip.addr -> if_id:int -> unit -> unit

val install_route : t -> Ip.prefix -> route -> unit
(** Used by {!Dv}. *)

val remove_route : t -> Ip.prefix -> bool
val routes : t -> (Ip.prefix * route) list
val table_size : t -> int

val send_ip : t -> Packet.t -> unit
(** Route and transmit a locally originated datagram. *)

val set_proto_handler : t -> Packet.proto -> (Packet.t -> in_if:int -> unit) -> unit
(** Deliver datagrams addressed to this node (or broadcast) for one
    protocol.  Registered by {!Udp}, {!Tcp}, {!Dv}, {!Mobile_ip}. *)

val set_forward_hook : t -> (Packet.t -> in_if:int -> Packet.t option) -> unit
(** Middlebox interposition on the forwarding path ({!Nat},
    {!Mobile_ip} home agents): return a rewritten packet to continue
    forwarding with, or [None] to consume it. *)

val send_on_iface : t -> int -> Packet.t -> unit
(** Transmit on a specific interface, bypassing the table ({!Dv}
    advertisements). *)

val inject : t -> Packet.t -> in_if:int -> unit
(** Hand a packet to the local protocol handlers regardless of its
    destination address — tunnel decapsulation ({!Mobile_ip}) needs
    this because the inner destination is a logical home address, not
    a current interface address. *)

val iface_ids : t -> int list

val on_iface_change : t -> (int -> bool -> unit) -> unit
(** Carrier watchers for all interfaces (present and future). *)

val metrics : t -> Rina_util.Metrics.t
(** [ip_rx], [ip_tx], [forwarded], [no_route], [ttl_expired],
    [delivered]... *)

val broadcast_addr : Ip.addr
