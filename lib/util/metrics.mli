(** Named integer counters grouped in registries.

    Components (EFCP instances, routers, schedulers) increment counters
    through a registry; experiments read them afterwards to report
    message overheads, retransmission counts, update scopes, etc.  A
    high-water mark is a counter raised to each new maximum with
    {!get} and {!add} (or {!value} and {!bump_by}).  Distributions go
    to {!Sketch.Hist}.

    Two ways to bump, one registry.  A site that runs per frame, PDU or
    SDU declares a {!counter} handle once per component instance and
    bumps it with {!bump}/{!bump_by}: no string is hashed per bump.
    Everything else (control-plane events, errors, per-run tallies)
    bumps by name with {!incr}/{!add}, which hashes the name each time
    and needs no declaration.  Both write the same cells, so readers
    ({!get}, {!to_list}) cannot tell them apart. *)

type t
(** A registry of named counters. *)

val create : unit -> t

val incr : t -> string -> unit
(** Increment by one, creating the counter at zero if needed. *)

val add : t -> string -> int -> unit
(** Add a (possibly negative) amount.  The counter is clamped at zero:
    a negative delta can never drive it below zero, since a negative
    tally reads as corruption everywhere counters are consumed. *)

val get : t -> string -> int
(** Current value; 0 for a counter never touched. *)

val to_list : t -> (string * int) list
(** All counters, sorted by name. *)

type counter
(** A handle on one named counter of one registry, resolved once. *)

val counter : t -> string -> counter
(** [counter reg name] declares a handle.  It joins [reg] on its first
    {!bump} or {!bump_by}, not here: until then [get reg name] is 0 and
    [name] is absent from {!to_list}, as if it had never been named. *)

val bump : counter -> unit
(** Same as [incr reg name], without hashing [name]. *)

val bump_by : counter -> int -> unit
(** Same as [add reg name n], clamp at zero included. *)

val value : counter -> int
(** Same as [get reg name]. *)
