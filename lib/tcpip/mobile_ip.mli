(** Mobile-IP (RFC 3344 in miniature): the baseline's answer to
    mobility, with the defects §6.4 lists — the home agent is a single
    point of failure and every packet triangle-routes through the home
    network.

    A mobile keeps its *home address* for transport connections.  When
    away, it acquires a care-of address and registers it with its home
    agent over UDP; the home agent intercepts packets to the home
    address and tunnels them (IP-in-IP) to the care-of address, where
    the mobile decapsulates. *)

type home_agent

val home_agent : Node.t -> Udp.t -> local:Ip.addr -> home_agent
(** Run on the home-network router: installs a forward hook that
    tunnels packets destined to registered home addresses, and a UDP
    registration listener. *)

val bindings : home_agent -> (Ip.addr * Ip.addr) list
(** (home address, care-of address) pairs. *)

val tunnelled : home_agent -> int

type mobile

val mobile : Node.t -> Udp.t -> home_addr:Ip.addr -> mobile
(** Attach mobility support on the mobile host: a decapsulator for
    tunnelled packets (delivering the inner packet locally) plus
    registration machinery.  The [home_addr] stays bound to the
    mobile's logical identity even when its interface is renumbered. *)

val register_care_of :
  mobile ->
  home_agent_addr:Ip.addr ->
  care_of:Ip.addr ->
  on_ack:(unit -> unit) ->
  unit
(** Send a registration (retransmitted up to 3 times) and invoke
    [on_ack] when the home agent confirms. *)

val deregister : mobile -> home_agent_addr:Ip.addr -> care_of:Ip.addr -> unit
