(** Link-state routing over the graph of a DIF's IPC processes.

    This module is the computational core only — the link-state
    database and shortest-path-first — deliberately free of I/O.  The
    IPC process floods {!Lsa.t}s in RIEP [M_write] messages, calls
    {!install} on reception, and rebuilds its forwarding table from
    {!spf} when the database changes.

    Routes are computed over *node addresses* ("a route is a sequence
    of node addresses"); selecting the point of attachment to the next
    hop is the second step (Fig. 4) and lives with the RMT's port
    choice, not here.

    Edge costs must be finite and non-negative ({!valid_cost}):
    Dijkstra assumes it.  {!Lsa.decode} rejects any other cost, and
    {!Ipcp.bind_port} refuses one. *)

val valid_cost : float -> bool
(** [true] for a finite, non-negative cost. *)

module Lsa : sig
  type t = {
    origin : Types.address;
    seq : int;  (** per-origin monotone version *)
    neighbors : (Types.address * float) list;  (** (neighbour, cost) *)
  }

  val encode : t -> bytes

  val decode : bytes -> (t, string) result
  (** [Error] on malformed bytes and on any cost that fails
      {!valid_cost}. *)

  val pp : Format.formatter -> t -> unit
end

type t

val create : unit -> t

val install : ?now:float -> t -> Lsa.t -> bool
(** Insert if newer than the stored version for that origin; [true]
    means the database changed and the LSA should be flooded on.
    [now] (virtual time, default 0) stamps the entry for {!expired};
    a duplicate of the stored sequence number refreshes the stamp
    without reporting a change — the origin proved itself alive. *)

val graph_version : t -> int
(** Moves exactly when the graph SPF runs over changes: an origin
    installed for the first time, an accepted LSA whose neighbour list
    (addresses and costs, in order) differs from the stored one, a
    {!withdraw} that removes an LSA, or a {!clear} of a non-empty
    database.  A refresh (higher sequence number, same neighbours) and
    a duplicate leave it alone, so a caller that recorded it at its
    last {!spf} knows whether that result still holds. *)

val withdraw : t -> Types.address -> bool
(** Remove an origin's LSA entirely (member left or declared dead);
    [true] if present. *)

val expired : t -> now:float -> max_age:float -> Types.address list
(** Origins whose LSA has not been (re-)installed within [max_age]
    seconds of [now], sorted.  Empty when [max_age <= 0] (aging
    disabled). *)

val clear : t -> unit
(** Drop the whole database — an IPCP losing its state on crash. *)

val lsa_of : t -> Types.address -> Lsa.t option

val origins : t -> Types.address list
(** All origins present, sorted. *)

val all : t -> Lsa.t list

type next_hops = (Types.address, Types.address * float) Hashtbl.t
(** destination → (next-hop address, path cost) *)

val spf : t -> source:Types.address -> next_hops
(** Dijkstra from [source].  An edge is used only if both endpoints
    advertise it (two-way check), which keeps transients loop-free.
    The source itself does not appear in the result.  Every call
    computes afresh; reusing a table across calls is the caller's
    decision, keyed on {!graph_version}.  It runs over a dense index of
    the database's addresses that {!install}, {!withdraw} and {!clear}
    keep current, not over the database itself. *)

val spf_multi :
  t -> source:Types.address -> (Types.address, Types.address list * float) Hashtbl.t
(** Equal-cost variant of {!spf} for multipath striping: destination →
    (sorted equal-cost first hops, path cost).  Ties discovered during
    relaxation are merged; the result is deterministic for a given
    database.  The multihoming layer unions the live ports toward each
    listed first hop into the candidate path set. *)

val size : t -> int
(** Number of LSAs stored (per-node routing-state metric for C1). *)

val index_size : t -> int
(** Slots the dense index has handed out.  A slot is reused once no
    installed LSA names its address and its own LSA is gone, so this
    stays at the most addresses the database named at once, however
    many come and go. *)
