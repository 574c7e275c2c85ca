(** Declarative policy specifications.

    Section 8 of the paper proposes that users specify IPC policies
    declaratively ("no more protocols to design, only policies to
    specify").  This module is that interface: an INI-style text form
    compiled onto {!Policy.t}, so experiments C4 can swap transport
    behaviour — stop-and-wait, go-back-N, selective repeat, delayed
    acks, schedulers — without touching any mechanism code.

    The grammar is line oriented: [\[section\]] headers, [key = value]
    lines, and [#] comments.  Every key, with its section, value kind
    and bounds, lives in one table; [rina_demo policy --inline ''] prints
    every key with its default value. *)

(** What a key's value must look like. *)
type kind =
  | Int of int  (** an integer at least this *)
  | Float of { lo : float; open_lo : bool; hi : float }
      (** a number in [lo, hi], or (lo, hi] when [open_lo] *)
  | Enum of string list  (** one of these words *)
  | Str  (** any text *)

val keys : (string * string * kind) list
(** Every key of the grammar as [(section, key, kind)], in the order
    {!to_string} prints them. *)

val sections : string list
(** The section names, in printing order. *)

(** A structural problem with one line of a spec. *)
type finding =
  | Unknown_section of string
  | Unknown_key of { section : string; key : string }
  | Outside_section of string  (** a [key = value] line before any header *)
  | Malformed of string  (** neither a header nor [key = value] *)
  | Duplicate of { section : string; key : string; first : int }
      (** the key was already set at line [first] *)
  | Bad_value of { key : string; value : string; expected : string }
      (** the value is not of the key's kind or out of its bounds *)

val message : finding -> string

type scan = {
  policy : Policy.t;
      (** the spec applied over the base, skipping bad lines; a
          repeated key keeps its last valid value *)
  set_at : string -> string -> int;
      (** [set_at section key] is the line that set the key's resolved
          value, [0] when it is inherited from the base *)
  findings : (int * finding) list;  (** with their lines, in line order *)
}

val scan : ?base:Policy.t -> string -> scan
(** Read a whole spec without stopping at the first problem.  Lines
    under an unknown section are skipped silently: the section's own
    finding covers them. *)

val parse : ?base:Policy.t -> string -> (Policy.t, string) result
(** Apply a spec on top of [base] (default {!Policy.default}).  The
    error is the first finding of {!scan}, as ["line N: message"]; a
    duplicate key names both lines.  [\[auth\] kind = password] without
    a secret is rejected at its [kind] line.  For every finding at once,
    with severities and cross-key rules, see [Rina_check.Lint]. *)

val value : Policy.t -> string -> string -> string option
(** [value p section key] is the key's value as {!to_string} prints
    it, or [None] when the line is omitted (a [quantum] outside DRR, a
    [secret] without password authentication) or the key is unknown. *)

val to_string : Policy.t -> string
(** Render a policy back into spec text.  Floats are printed with the
    fewest digits that read back exactly, so [parse (to_string p)]
    gives back [p] for any [p] the grammar can express. *)
