(** JSON: one value type, one printer with two layouts, one total
    parser.  Every artifact, JSONL line and machine-readable CLI report
    in the repo goes through this module.

    A number keeps the literal it prints as.  Each writer picks its
    format once, when it builds the value ({!int}, {!fixed}, {!float}),
    and the printers never reformat: [fixed 6 0.5] prints [0.500000],
    and a parsed document prints back with the same number bytes. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** a JSON number literal, printed verbatim *)
  | Str of string  (** raw bytes; escaped on output *)
  | Arr of t list
  | Obj of (string * t) list  (** members in print order *)

(** {2 Numbers} *)

val int : int -> t

val fixed : int -> float -> t
(** [fixed d f] prints [f] with [d] decimals, as [Printf "%.*f"];
    [Null] when [f] is not finite. *)

val float : float -> t
(** The shortest decimal literal that reads back as exactly [f]
    ([3.] prints as [3]); [Null] when [f] is not finite. *)

(** {2 Printing} *)

val to_string : t -> string
(** Compact layout: one line, no spaces, e.g. [{"k":[1,2],"s":"x"}].
    Used for JSONL and CLI output. *)

val pretty : t -> string
(** Artifact layout, ending in a newline.  An object puts one member
    per line at a 2-space indent; an array puts one element per line,
    each in the inline form [{"k": v, "l": [1, 2]}]; empty containers
    print as [{}] and [[]]. *)

(** {2 Parsing} *)

val parse : string -> (t, string) result
(** Total: any byte string gives [Ok] or [Error] (with the byte
    offset), never an exception.  Numbers follow the JSON grammar and
    [\u] escapes decode to UTF-8 (surrogate pairs combined).  A lone
    surrogate, a raw control character inside a string, nesting deeper
    than 512 and anything after the value but whitespace are errors;
    other bytes inside strings are kept as they are. *)

val parse_line : string -> ((string * t) list, string) result
(** One JSONL line: {!parse}, then require a flat object whose values
    are all strings or numbers. *)

(** {2 Reading values} *)

val member : string -> t -> t option
(** First member [k] of an object; [None] for a missing key or a
    non-object. *)

val to_str : t -> string option
val to_num : t -> float option
