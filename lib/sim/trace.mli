(** Timestamped event log backed by the {!Rina_util.Flight} recorder.

    Experiments attach one trace to an engine; instrumented components
    all over the stack then emit typed {!Rina_util.Flight.event}s into
    it.  The events are read back with {!typed_events}, exported as
    JSONL for [rina_trace], and analysed offline by
    [Rina_check.Trace_report] (e.g. the handoff interruption window,
    [Trace_report.delivery_gap]).

    Events live in an O(1)-append buffer; nothing is recorded unless
    {!attach} has been called (tracing is off by default and costs one
    load + one branch per emission site). *)

type t

val create : ?ring_capacity:int -> Engine.t -> t
(** [ring_capacity] bounds the event buffer: once full it keeps only
    the newest [ring_capacity] events and counts the overwritten rest
    ([Flight.Buf.dropped]).  Default: unbounded. *)

val attach :
  ?sample_rate:float -> ?telemetry:Rina_util.Telemetry.t -> ?stream:string -> t -> unit
(** Turn the flight recorder on and direct it into [t]: installs the
    engine clock as timestamp source, [t]'s buffer as the sink and sets
    [Flight.enabled].  The recorder is domain-global — attaching a
    second trace in the same domain redirects all emission, while each
    parallel-runner worker domain has its own independent recorder.

    [sample_rate] (default [1.]) enables deterministic head sampling:
    only spans kept by the pure hash (plus landmark events) reach the
    sink; a [Custom "meta:sample_ppm"] marker event records the rate in
    the trace itself.  [telemetry] installs the registry's {!observe}
    as the Flight tap, so exact aggregates accumulate from {e every}
    event regardless of the sample rate.  [stream] redirects the sink
    to a JSONL file, one event per line as it happens, instead of
    buffering — long runs spill to disk; call {!close} to flush.
    @raise Invalid_argument if [sample_rate] is outside (0, 1]; the
    check comes first, so a rejected call leaves the [stream] file,
    [t] and the recorder untouched. *)

val detach : unit -> unit
(** Turn the flight recorder off and restore the null sink/clock/tap
    and the keep-everything sample rate.  Already-buffered events
    remain readable. *)

val close : t -> unit
(** Flush and close the streaming sink (if any), then {!detach}. *)

val is_attached : t -> bool

val snapshots : t -> interval:float -> until:float -> unit
(** Schedule a periodic live-stats timer on the engine's [Timer] lane
    (the coarse wheel): every [interval] seconds until [until] it
    records a {!Rina_util.Telemetry.snap} interval snapshot and emits a
    [Custom "snapshot"] marker event.
    @raise Invalid_argument if [interval <= 0] or [t] was attached
    without [~telemetry]. *)

val probe : t -> name:string -> period:float -> until:float -> (unit -> int) -> unit
(** [probe t ~name ~period ~until sample] schedules a periodic sampler
    on the engine clock: every [period] seconds until [until] it emits
    a [Custom "probe"] event with component [name] and the sampled
    value in the [size] field — but only while the recorder is
    attached.  Used for link queue depth and EFCP window occupancy.
    @raise Invalid_argument if [period <= 0]. *)

val typed_events : t -> Rina_util.Flight.event list
(** All events, oldest first, in full typed form. *)

val length : t -> int

val save_jsonl : t -> string -> unit
(** Write every buffered event as one JSON object per line (the format
    [bin/rina_trace] reads). *)

val load_jsonl : string -> (Rina_util.Flight.event list, string) result
(** Parse a file written by {!save_jsonl} (or a streaming sink);
    blank lines are skipped.  Streams line by line — peak memory is one
    line plus the result, not the file.  Errors carry [file:line:]. *)

val fold_jsonl :
  string ->
  init:'a ->
  f:('a -> Rina_util.Flight.event -> 'a) ->
  ('a, string) result
(** Streaming fold over a JSONL trace file, one line at a time —
    aggregate a multi-gigabyte spill without materialising it. *)
