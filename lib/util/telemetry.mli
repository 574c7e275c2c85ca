(** Streaming telemetry registry: exact counters and mergeable sketches
    fed live from a {!Flight} tap.

    Where the flight recorder buffers (sampled) events for post-hoc
    analysis, a [Telemetry.t] aggregates {e every} event as it is
    emitted — {!install} hooks the registry into the recorder (done by
    [Rina_sim.Trace.attach ~telemetry]) and counters, drop timelines,
    probe distributions and span latencies are maintained online, in
    O(1) per event, regardless of the trace sample rate.  This is what
    keeps a 10^6-endpoint run observable without buffering 10^8 events.

    The aggregation splits in two: exact per-kind counts ride the
    {!Flight.tally} (mutable ints bumped inline by [emit_to], so counting
    a shed event costs two increments and no allocation), while
    {!observe} — the Flight tap — sees only kept events and does the
    table work: span-latency matching, per-reason drop timelines,
    probe sketches.

    {b Merge contract}: [Rina_exp.Par.map_telemetry] hands each trial
    a private registry, and {!merge_into} is exact bucket-wise
    addition, associative and commutative, applied in input order.  A
    merged registry is therefore byte-identical ({!to_jsonl}) between a
    sequential and a multi-domain run of the same trials.

    Latency is tracked for head-sampled spans only (see
    {!set_latency_ppm}); because sampling is span-uniform the sampled
    latency distribution is an unbiased estimate of the full one, and
    it matches the spans present in the sampled trace exactly. *)

type t

type snapshot = {
  at : float;  (** virtual time of the snapshot *)
  events : int;  (** events since the previous snapshot *)
  sent : int;
  recvd : int;
  dropped : int;
}

val create : ?series_bucket:float -> unit -> t
(** Fresh registry.  [series_bucket] (default [0.5] s) is the interval
    width of every time series in this registry; registries merge only
    when their widths agree. *)

val install : t -> Flight.recorder -> unit
(** Hook this registry into a flight recorder: the tally for exact
    counts of every event, {!observe} as the tap for the kept ones.
    [Rina_sim.Trace.attach ~telemetry] calls this. *)

val uninstall : Flight.recorder -> unit
(** Remove the recorder's tally and tap. *)

val tally : t -> Flight.tally
(** The registry's hot counters (shared with the recorder while
    {!install}ed). *)

val observe : t -> Flight.event -> unit
(** The Flight tap: fold one {e kept} event into the registry —
    span-latency matching, drop timelines, probe sketches.  Exact
    counts (including shed events) ride the {!tally} instead. *)

val set_latency_ppm : t -> int -> unit
(** Keep rate (parts-per-million) for span-latency tracking; set by
    [Trace.attach] to match the trace sample rate.  Default: track
    every span. *)

val latency_ppm : t -> int

(** {2 Direct instrumentation} *)

val count : t -> string -> unit
(** Bump a named auxiliary counter (created on first use), held in a
    {!Metrics.t}. *)

val counter : t -> string -> int
(** Value of a built-in ([events], [sent], [recvd], [dropped],
    [retransmit], [timer], [latency_pending]) or auxiliary counter;
    0 when absent. *)

val add_sample : t -> string -> float -> unit
(** Add one sample to a named histogram (created on first use). *)

val hist : t -> string -> Sketch.Hist.t option
val series : t -> string -> Sketch.Series.t option

val hist_names : t -> string list
(** Sorted. *)

val series_names : t -> string list
(** Sorted. *)

val counter_names : t -> string list
(** Built-in counter names in canonical order, then auxiliaries
    sorted. *)

(** {2 Snapshots} *)

val snap : t -> now:float -> snapshot
(** Record (and return) the interval deltas since the previous
    snapshot, and fold the interval's sent/recvd counts into the
    ["sent"]/["recvd"] time series (at the interval midpoint — shed
    frames never reach the tap, so the timelines are snapshot-fed).
    Driven by [Rina_sim.Trace.snapshots] off the engine's timer
    wheel. *)

val snapshots : t -> snapshot list
(** In recording order. *)

(** {2 Merge and serialisation} *)

val merge_into : into:t -> t -> unit
(** Exact shard merge: counters and sketch buckets add, snapshot lists
    concatenate ([into]'s first), pending latency probes of the merged
    shard are folded into the [latency_pending] counter.
    @raise Invalid_argument when series bucket widths differ. *)

val to_jsonl : t -> string
(** Canonical JSONL export — fixed line order (meta, counters,
    snapshots, histograms, series; names sorted), canonical number
    formatting — so equal registries serialise byte-identically. *)

val of_jsonl : string -> (t, string) result
(** Inverse of {!to_jsonl}; errors carry a line number.  A negative
    counter is an error. *)

val load_jsonl : string -> (t, string) result
(** Read a stats file written from {!to_jsonl}. *)
