(** Flight recorder: a stream of typed simulation events.

    Every layer of the stack — engine timers, links, the wireless
    medium, EFCP, the RMT, RIB/RIEP management, routing and the TCP/IP
    baseline — emits into one shared schema, so a single trace can
    follow a PDU down the DIF recursion, across relays and back up.

    A {!recorder} is a plain value.  Each [Rina_sim.Engine.t] owns one,
    and every component reaches it through the engine it runs on, so
    two engines trace independently, in one domain or in several.

    Tracing is off by default.  Every emission site has the same guard,
    [if Flight.on r then Flight.emit_to r ...]: the disabled cost is a
    branch with no allocation, and {!emit_to} does not re-check it.

    [Rina_sim.Trace] installs the sink when a trace is attached; this
    module stays free of engine and file dependencies so it can sit at
    the bottom of the library stack. *)

(** Why a PDU (or frame) was dropped. *)
type reason =
  | R_queue_full
  | R_link_down
  | R_blackhole
  | R_loss
  | R_crc
  | R_decode
  | R_ttl_expired
  | R_no_route
  | R_ingress_filter
  | R_stale
  | R_duplicate
  | R_corrupt  (** SDU-protection verification failed (mangled frame) *)
  | R_dup  (** duplicate suppressed by EFCP (cache or window) *)
  | R_reorder_overflow  (** EFCP reorder buffer full *)
  | R_congestion  (** overflow of a queue already past its ECN mark threshold *)
  | R_endpoint_crash
      (** frame was in flight (or held back by a mangler) toward an
          endpoint that crashed before delivery *)
  | R_path_down  (** PDU steered onto a path whose health monitor holds it Down *)
  | R_other of string

type kind =
  | Pdu_sent
  | Pdu_recvd
  | Pdu_dropped of reason
  | Enqueued
  | Dequeued
  | Timer_set
  | Timer_fired
  | Retransmit
  | Handoff
  | Route_update
  | Custom of string
      (** Component-specific events: management messages, lifecycle
          and fault markers, trace metadata and periodic probe
          samples. *)

type event = {
  time : float;
  component : string;
  kind : kind;
  flow : int;  (** flow identity (CEP / port / tuple hash); 0 = none *)
  rank : int;  (** DIF rank; 0 = unknown / not applicable *)
  seq : int;   (** sequence number; 0 = none *)
  size : int;  (** bytes for PDU events, sampled value for probes *)
  span : int;  (** trace id joining one PDU's events across layers *)
}

type recorder
(** One run's recording state: switch, clock, sink, sample rate, tally
    and tap. *)

val create : unit -> recorder
(** A recorder that is off and keeps every event, with a null sink, no
    tap, a clock stuck at [0.] and its own scratch tally.
    [Rina_sim.Engine.create] makes one per engine. *)

val on : recorder -> bool
(** The recorder's tracing switch, [false] until {!set_enabled}. *)

val set_enabled : recorder -> bool -> unit

val set_clock : recorder -> (unit -> float) -> unit
(** Source of event timestamps; [Rina_sim.Engine.create] sets it to
    the engine's virtual clock. *)

val set_sink : recorder -> (event -> unit) -> unit
(** Where kept events go; installed by [Trace.attach]. *)

(** Exact per-kind event counts, bumped inline by {!emit_to} for every
    event — kept or shed — whenever a tally is installed.  A plain
    record of mutable ints: counting a shed event costs two increments,
    no allocation, no clock read, no indirect call.  This is the hot
    half of online aggregation; [Rina_util.Telemetry] owns one tally
    per registry and derives its counters from it. *)
type tally = {
  mutable t_events : int;
  mutable t_sent : int;
  mutable t_recvd : int;
  mutable t_dropped : int;
  mutable t_retransmit : int;
  mutable t_timer : int;  (** [Timer_set] + [Timer_fired] *)
}

val create_tally : unit -> tally
(** All-zero tally. *)

val set_tally : recorder -> tally option -> unit
(** Install ([Some]) or remove ([None], the default) a tally. *)

val set_tap : recorder -> (event -> unit) option -> unit
(** Streaming observer for every {e kept} event — the sampled spans
    plus the landmark kinds — called just before the sink.  This is
    the cold half of online aggregation: span-latency matching, drop
    timelines and probe distributions ride the tap, while the exact
    counts of shed events ride the {!tally}.  [None] (the default)
    removes the tap. *)

(** {2 Deterministic head sampling}

    With a sample rate below 1, the sink receives only events whose
    span id the hash {!span_kept} keeps, plus low-volume landmark
    kinds ([Custom] probes and markers, drops, [Handoff],
    [Route_update]).  Span-less high-volume events (opaque link
    frames, raw timer churn) are shed entirely — their exact counts
    survive in the {!tally}.  The
    keep/drop decision is a pure function of the span id, so a kept
    span keeps {e all} of its events across every layer, and sampled
    traces are byte-identical across replays and across
    [Rina_exp.Par] domain fan-out. *)

val set_sample_rate : recorder -> float -> unit
(** Set the keep probability, in (0, 1].  [1.] (the default) keeps
    everything.
    @raise Invalid_argument outside (0, 1]. *)

val sample_ppm : recorder -> int
(** Current keep rate in parts-per-million ([1_000_000] = keep all). *)

val ppm_of_rate : float -> int
(** Rate in (0, 1] to parts-per-million (at least 1).
    @raise Invalid_argument outside (0, 1]. *)

val span_kept : keep_ppm:int -> int -> bool
(** [span_kept ~keep_ppm span]: the pure per-span keep decision at
    [keep_ppm] parts-per-million.  Deterministic — no state, no
    clock — so replays and parallel workers agree event by event. *)

val event_kept : keep_ppm:int -> span:int -> kind -> bool
(** The full keep/shed predicate {!emit_to} applies: landmark kinds
    (drops, [Custom], [Handoff], [Route_update]) always survive;
    everything else needs a span that {!span_kept} keeps. *)

val emit_to :
  recorder ->
  component:string ->
  ?flow:int ->
  ?rank:int ->
  ?seq:int ->
  ?size:int ->
  ?span:int ->
  kind ->
  unit
(** Count the event in the recorder's tally and, if the sampling
    decision keeps it, stamp it with the clock time and pass it to the
    tap and sink.  Only call under [on r] (the guard lives at the call
    site so the disabled path allocates nothing); a shed event is never
    constructed, so under sampling the common case costs a couple of
    increments. *)

val span_of : flow:int -> seq:int -> int
(** Deterministic trace id for a PDU, mixed from its flow key and
    sequence number, so sender, relays and receiver compute the same id
    with nothing extra on the wire.  Always positive and non-zero. *)

val reason_to_string : reason -> string
val reason_of_string : string -> reason
(** Inverse of {!reason_to_string} for the built-in reasons; any other
    string maps to [R_other]. *)

val kind_to_string : kind -> string
(** Display form; [Custom s] renders as [s]. *)

(** Growable event buffer with O(1) amortised append, or — with a
    [capacity] — a bounded ring that keeps the newest [capacity] events
    and counts exactly how many old ones it overwrote. *)
module Buf : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] 0 (the default) grows without bound; [capacity > 0]
      switches to ring mode: once full, each append overwrites the
      oldest event and increments {!dropped}.
      @raise Invalid_argument on negative capacity. *)

  val add : t -> event -> unit
  val length : t -> int

  val dropped : t -> int
  (** Exact count of events overwritten in ring mode (0 otherwise). *)

  val get : t -> int -> event
  (** Logical index 0 is the oldest retained event.
      @raise Invalid_argument when out of bounds. *)

  val iter : (event -> unit) -> t -> unit
  val to_list : t -> event list
  val clear : t -> unit
end

(** {2 JSONL codec}

    One event per line, e.g.
    [{"t":1.25,"c":"efcp","k":"pdu_dropped","r":"queue_full","flow":3,"seq":7,"size":500,"span":129}].
    Zero-valued numeric fields are omitted on output and default to 0
    when absent on input.  Lines are {!Json} compact objects; decoding
    goes through {!Json.parse_line}, so a line whose values are not all
    strings or numbers is an [Error]. *)

val event_to_json : event -> string
val event_of_json : string -> (event, string) result
