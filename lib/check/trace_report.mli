(** Offline analysis of flight-recorder traces.

    Input is a plain {!Rina_util.Flight.event} list — from
    {!Rina_sim.Trace.typed_events} or {!Rina_sim.Trace.load_jsonl} —
    and every function tolerates out-of-order events, sorting where
    order matters.  This is the computational core of the [rina_trace]
    CLI; tests assert on these values rather than on printed text. *)

val latency_by_flow :
  Rina_util.Flight.event list -> (int * Rina_util.Stats.t) list
(** Per-flow one-way delay samples, keyed by the receiving event's
    [flow] field and sorted by it.  Each span contributes at most one
    sample: earliest [Pdu_sent]/[Retransmit] to earliest [Pdu_recvd]
    (first delivery), so retransmitted copies do not inflate the
    distribution. *)

val drop_breakdown : Rina_util.Flight.event list -> (string * int) list
(** [Pdu_dropped] counts per reason, most frequent first (ties sorted
    by reason name). *)

val delivery_gap :
  ?component:string ->
  Rina_util.Flight.event list ->
  (float * float) option
(** Widest interval between consecutive [Pdu_recvd] events as
    [(gap, start_time)], optionally restricted to components starting
    with [component] — the handoff interruption window.  [None] with
    fewer than two deliveries.  Delivery times are sorted first and
    ties between equally wide gaps resolve to the earliest interval,
    so duplicate timestamps yield a deterministic answer. *)

val blackouts :
  ?component:string ->
  ?rank:int ->
  Rina_util.Flight.event list ->
  (string * float * float option) list
(** Per-fault delivery interruption: for every fault-injector event
    ([Custom "fault:<label>"]) applied at time [a] and healed at the
    matching ["heal:<label>"] time [h] (or [a] when none), the widest
    interval between consecutive [Pdu_recvd] events overlapping
    [\[a, h\]], as [(label, a, gap)] sorted by apply time.  The gap may
    extend past the heal — that tail {e is} the recovery time.
    [gap = None] means delivery never resumed after [a] — an unbounded
    outage.  A fault with no deliveries before its heal is charged
    from [a] to the first delivery.  [component] restricts the
    deliveries considered, as in {!delivery_gap}; [rank] restricts
    them to one DIF level (in a stacked run the lower DIFs keep
    delivering management traffic through a higher-level outage). *)

val queue_timeline :
  Rina_util.Flight.event list -> (string * (float * int) list) list
(** Probe samples ([Custom "probe"] events) grouped by probe name:
    [(time, sampled value)] in time order — link queue depths and EFCP
    window occupancy. *)

val span_tree :
  ?max_spans:int ->
  Rina_util.Flight.event list ->
  (int * (float * string * string) list) list
(** Events sharing a per-PDU span id, in time order per span —
    [(time, component, kind label)] — spans ordered by first
    appearance.  Shows a PDU's path through the layers. *)

val sequence_diagram : ?max_spans:int -> Rina_util.Flight.event list -> string
(** Text rendering of {!span_tree} (default 10 spans): one block per
    span, one line per event, with [a -> b] markers where the PDU moves
    between components. *)

val sample_ppm : Rina_util.Flight.event list -> int option
(** Head-sampling keep rate (parts-per-million) recorded in the trace's
    [Custom "meta:sample_ppm"] marker; [None] for unsampled traces. *)

val scale_count : ppm:int -> int -> int
(** Scale a span-derived sample count back to a full-population
    estimate ([n * 10^6 / ppm]); identity when [ppm] means unsampled. *)

val summary : Rina_util.Flight.event list -> string
(** Event, component and span totals plus per-kind counts; sampled
    traces additionally report their keep rate and the estimated
    full-run span count. *)
