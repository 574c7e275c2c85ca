(** UDP-style datagram service with well-known ports — the service
    model (addresses + ports visible to applications) the paper's
    architecture removes. *)

type t

val attach : Node.t -> t
(** Install the UDP handler on a node (idempotent per node would be
    wasteful — attach once). *)

val listen : t -> port:int -> (src:Ip.addr -> sport:int -> bytes -> unit) -> unit
(** Bind a handler to a local port. *)

val unlisten : t -> port:int -> unit

val send : t -> src:Ip.addr -> dst:Ip.addr -> sport:int -> dport:int -> bytes -> unit

val next_query_id : t -> int
(** A fresh resolver query id for this host: 1, 2, 3, ...  ({!Dns.resolve}
    derives its client port from it). *)

val open_ports : t -> int list
(** Bound ports, sorted — what a port scan can discover (C2). *)

val metrics : t -> Rina_util.Metrics.t
