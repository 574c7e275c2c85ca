(** Mergeable streaming sketches for scale-ready telemetry.

    Two shapes cover the distributions the stack needs to watch while a
    long run is in flight, without buffering events:

    - {!Hist}: a log-bucketed histogram (DDSketch-style).  Values land
      in geometric buckets [gamma^i, gamma^(i+1)); quantile estimates
      carry a bounded {e relative} error of at most [sqrt gamma - 1]
      (~4.4% with the built-in gamma), independent of the value range —
      microsecond queue waits and multi-second blackouts share one
      sketch.
    - {!Series}: a time-bucketed counter (events per fixed-width
      interval of virtual time) for rates and drop timelines.

    Both merge {e exactly} — merging is bucket-wise integer addition,
    so it is associative and commutative, and a sketch merged from
    per-domain shards is byte-identical to the sketch a sequential run
    would have produced.  That is the observability contract
    [Rina_exp.Par] relies on: worker-local recording, order-fixed
    merge, identical output.

    Nothing here knows about domains; sharding lives in {!Telemetry}
    and [Rina_exp.Par]. *)

module Hist : sig
  type t

  val gamma : float
  (** Bucket growth factor, [2 ** (1/8)] (~1.0905): relative quantile
      error at most [sqrt gamma - 1] (~4.4%). *)

  val create : unit -> t

  val add : t -> float -> unit
  (** Record one sample.  Non-positive samples land in a dedicated
      zero bucket (they have no logarithm). *)

  val count : t -> int
  (** Total samples, zero bucket included. *)

  val zero_count : t -> int

  val quantile : t -> float -> float
  (** [quantile t q] with [q] in [0, 1]: the geometric midpoint of the
      bucket holding the q-th sample ([0.] if it is the zero bucket;
      [nan] when empty).  Relative error bounded by [sqrt gamma - 1]. *)

  val max_value : t -> float
  (** Upper edge of the highest occupied bucket; [nan] when empty. *)

  val buckets : t -> (int * int) list
  (** Occupied [(bucket_index, count)] pairs sorted by index — the
      canonical exportable form. *)

  val of_buckets : zero:int -> (int * int) list -> t
  (** Rebuild from the canonical form (inverse of {!buckets}). *)

  val merge_into : into:t -> t -> unit
  (** Exact merge: bucket-wise addition.  Associative and commutative. *)
end

module Series : sig
  type t

  val create : bucket:float -> t
  (** Counter series with [bucket]-second intervals.
      @raise Invalid_argument if [bucket <= 0]. *)

  val bucket_width : t -> float

  val add : ?n:int -> t -> float -> unit
  (** [add t time] adds [n] (default 1) to the interval containing
      [time].  Consecutive adds into the same interval are O(1) without
      a table lookup (the common monotone-clock case). *)

  val total : t -> int

  val counts : t -> (int * int) list
  (** Occupied [(interval_index, count)] pairs sorted by index;
      interval [i] covers [[i*w, (i+1)*w)). *)

  val of_counts : bucket:float -> (int * int) list -> t

  val merge_into : into:t -> t -> unit
  (** Exact interval-wise addition.
      @raise Invalid_argument when bucket widths differ. *)
end
