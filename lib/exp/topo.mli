(** Topology builders shared by benchmarks, examples and tests. *)

(** Everything a built RINA scenario hands back. *)
type rina_net = {
  engine : Rina_sim.Engine.t;
  rng : Rina_util.Prng.t;
  dif : Rina_core.Dif.t;
  nodes : Rina_core.Ipcp.t array;
  links : Rina_sim.Link.t array;
  edges : (int * int) array;
      (** [edges.(i)] is the (node index, node index) pair joined by
          [links.(i)] — what the chaos hooks use to find the links that
          straddle a partition. *)
}

val line :
  ?seed:int ->
  ?policy:Rina_core.Policy.t ->
  ?bit_rate:float ->
  ?delay:float ->
  ?loss:Rina_sim.Loss.t ->
  ?rate_limited:bool ->
  n:int ->
  unit ->
  rina_net
(** [n] IPC processes in a chain, converged and ready (virtual time has
    advanced past enrollment).  [rate_limited] adds RMT shaping at the
    link rate on every port (needed for scheduler experiments).
    @raise Invalid_argument if [n < 2]. *)

val star :
  ?seed:int ->
  ?policy:Rina_core.Policy.t ->
  ?bit_rate:float ->
  ?delay:float ->
  ?loss:Rina_sim.Loss.t ->
  ?rate_limited:bool ->
  leaves:int ->
  unit ->
  rina_net
(** A hub (node 0) with [leaves] spokes.  [rate_limited] adds RMT
    shaping at the link rate on every port — with it, [leaves] senders
    converging on one spoke build a real queue at the hub (the incast
    bottleneck the congestion benches measure) instead of an unbounded
    channel backlog. *)

val random_graph :
  ?seed:int ->
  ?policy:Rina_core.Policy.t ->
  ?bit_rate:float ->
  ?delay:float ->
  n:int ->
  degree:int ->
  unit ->
  rina_net
(** Connected random graph: a spanning chain plus random extra edges
    until the average degree reaches [degree].  Used by the
    scalability sweep (C1). *)

val link_dif :
  Rina_sim.Engine.t ->
  policy:Rina_core.Policy.t ->
  string ->
  Rina_sim.Link.t ->
  Rina_core.Ipcp.t * Rina_core.Ipcp.t
(** [link_dif engine ~policy name link]: a converged two-member DIF
    [name] over one wire, each port wrapped by {!Rina_core.Shim.wrap}.
    Returns its members [<name>-a] (on the wire's A end) and
    [<name>-b] — the lower rank a stacked DIF rides on
    ({!Rina_core.Dif.stack_connect}). *)

(** A TCP/IP scenario's pieces. *)
type ip_net = {
  ip_engine : Rina_sim.Engine.t;
  ip_rng : Rina_util.Prng.t;
  hosts : Tcpip.Node.t array;
  routers : Tcpip.Node.t array;
  ip_links : Rina_sim.Link.t array;
}

val ip_line :
  ?seed:int ->
  ?bit_rate:float ->
  ?delay:float ->
  ?loss:Rina_sim.Loss.t ->
  ?dv_period:float ->
  routers:int ->
  unit ->
  ip_net
(** host - R1 - ... - Rk - host, addressed 10.i.0.0/16 per link,
    distance-vector routing started and converged. *)

val ip_star :
  ?seed:int ->
  ?bit_rate:float ->
  ?delay:float ->
  ?loss:Rina_sim.Loss.t ->
  leaves:int ->
  unit ->
  ip_net
(** [leaves] hosts around one forwarding hub (routers.(0)); leaf link
    [i] is subnet 10.(i+1).0.0/16, host .1 and hub .2.  The TCP incast
    baseline: many hosts converging on one. *)

val wait : Rina_sim.Engine.t -> float -> unit
(** Advance virtual time by a duration. *)

(** {2 Static-verification bridge} *)

val model_of_net :
  ?name:string ->
  ?intents:(int * string) list ->
  rina_net ->
  Rina_check.Verify.model
(** Extract a {!Rina_check.Verify.model} from a live net: one DIF
    (named [name], default the net's DIF name) whose members carry the
    enrolled addresses and actual app registrations, and one [Direct]
    adjacency per link with its real delay/rate/queue bound.
    [intents] plans flows as [(allocator node index, destination app
    name)]. *)

val scenarios : unit -> (string * Rina_check.Verify.model) list
(** The named scenario registry: pure-data models mirroring the
    shipped examples ([quickstart], [mail-relay], [marketplace],
    [mobile-video], [recursive-internet]).  This is what [rina_verify]
    runs over and [rina_lint --topology] reads its topology summaries
    from; all entries must verify error-free. *)

val scenario : string -> Rina_check.Verify.model option
