(** Online statistics accumulators used by every experiment.

    [t] keeps all samples (experiments are laptop-scale) so that exact
    percentiles can be reported.  Bucketed distributions with an exact
    merge are {!Sketch.Hist}. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample. *)

val count : t -> int

val mean : t -> float
(** Arithmetic mean; [nan] when no samples were recorded. *)

val max_value : t -> float
(** Largest sample; [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in \[0,100\], by linear interpolation
    between closest ranks; [nan] when empty. *)

val median : t -> float
