(** Online statistics accumulators used by every experiment.

    [t] keeps all samples (experiments are laptop-scale) so that exact
    percentiles can be reported; [Welford] offers a constant-space
    alternative when only mean/variance are needed.  Bucketed
    distributions with an exact merge are {!Sketch.Hist}. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample. *)

val count : t -> int
val total : t -> float

val mean : t -> float
(** Arithmetic mean; [nan] when no samples were recorded. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two samples. *)

val min_value : t -> float
(** Smallest sample; [nan] when empty. *)

val max_value : t -> float
(** Largest sample; [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in \[0,100\], by linear interpolation
    between closest ranks; [nan] when empty. *)

val median : t -> float

val summary : t -> string
(** One-line human-readable digest: n, mean, p50, p99, min, max. *)

(** Constant-space mean/variance accumulator (Welford's algorithm). *)
module Welford : sig
  type w

  val create : unit -> w
  val add : w -> float -> unit
  val count : w -> int
  val mean : w -> float
  val variance : w -> float
end
