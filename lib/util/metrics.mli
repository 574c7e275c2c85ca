(** Named integer counters grouped in registries.

    Components (EFCP instances, routers, schedulers) increment counters
    through a registry; experiments read them afterwards to report
    message overheads, retransmission counts, update scopes, etc.  A
    high-water mark is a counter raised to each new maximum with
    {!get} and {!add}.  Distributions go to {!Sketch.Hist}. *)

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
