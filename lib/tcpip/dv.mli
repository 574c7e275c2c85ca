(** Distance-vector routing (RIP-like) for the baseline stack.

    Periodic full-table advertisements on every interface with split
    horizon, metric 16 = unreachable, route expiry after
    [3.5 × period], and triggered updates on change.  Gives the
    baseline its (slow) failover behaviour for F4/C1. *)

type t

val start : Node.t -> ?period:float -> unit -> t
(** Begin advertising and listening on all current interfaces of the
    node.  [period] defaults to 5 s (scaled-down RIP's 30 s). *)

val advertisements_sent : t -> int
