(** Runtime invariant checking (the "simulation sanitizer" core).

    Components assert internal invariants — clock monotonicity, window
    bounds, conservation counters — through this module instead of
    [assert], so that checking can be switched on per run and
    violations are collected rather than aborting the simulation.

    The discipline at a call site is

    {[ if Invariant.enabled () then
         if bad then Invariant.record ~code:"SAN_..." detail ]}

    so a disabled sanitizer costs a domain-local load and a branch per
    check.  Checking is off by default; experiments and CI tests opt
    in.

    State is domain-local: each worker domain of a parallel trial
    sweep ([Rina_exp.Par]) has its own switch and store.

    This module holds no simulator state and lives in [Rina_util] so
    that both [Rina_sim] and [Rina_core] can report into it; the
    structured-diagnostic view lives in [Rina_check.Sanitizer]. *)

val enabled : unit -> bool
(** Master switch for this domain, [false] by default. *)

val set_enabled : bool -> unit

type violation = {
  code : string;       (** stable machine code, e.g. ["SAN_CLOCK"] *)
  detail : string;     (** human text from the first occurrence *)
  mutable count : int; (** occurrences since the last [clear] *)
}

val record : code:string -> string -> unit
(** Register a violation.  The first occurrence of each code keeps its
    detail string; later ones only bump the count. *)

val violations : unit -> violation list
(** All violations recorded since the last [clear], sorted by code. *)

val total : unit -> int
(** Sum of all violation counts. *)

val clear : unit -> unit
