(** Runtime invariant checking (the "simulation sanitizer" core).

    Components assert internal invariants — clock monotonicity, window
    bounds, conservation counters — through this module instead of
    [assert], so that checking can be switched on per run and
    violations are collected rather than aborting the simulation.

    A context is a plain value.  Each [Rina_sim.Engine.t] owns one
    ([Engine.checks]), and every component reaches it through the
    engine it runs on.  The discipline at a call site is

    {[ if Invariant.enabled c then
         if bad then Invariant.record c ~code:"SAN_..." detail ]}

    so a disabled sanitizer costs a branch per check.  Checking is off
    by default; experiments and CI tests opt in.

    This module holds no simulator state and lives in [Rina_util] so
    that both [Rina_sim] and [Rina_core] can report into it; the
    structured-diagnostic view lives in [Rina_check.Sanitizer]. *)

type t

val create : unit -> t
(** A context with checking off and no violations. *)

val enabled : t -> bool
(** The context's switch, [false] until {!set_enabled}. *)

val set_enabled : t -> bool -> unit

type violation = {
  code : string;       (** stable machine code, e.g. ["SAN_CLOCK"] *)
  detail : string;     (** human text from the first occurrence *)
  mutable count : int; (** occurrences since the last [clear] *)
}

val record : t -> code:string -> string -> unit
(** Register a violation.  The first occurrence of each code keeps its
    detail string; later ones only bump the count. *)

val violations : t -> violation list
(** All violations recorded since the last [clear], sorted by code. *)

val clear : t -> unit
