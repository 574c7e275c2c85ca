(** Error and Flow Control Protocol: one instance per flow endpoint.

    EFCP is the short-timescale half of an IPC process: per-PDU
    sequencing (DTP) plus the transfer-control loop (DTCP) —
    retransmission, cumulative acknowledgements with credit windows,
    RTT estimation (Jacobson), exponential RTO backoff and fast
    retransmit on triple duplicate acks.  All behavioural knobs come
    from {!Policy.efcp}, so the same machine runs as stop-and-wait
    (window 1), go-back-N, selective repeat or bare sequencing
    ([No_rtx]) — the mechanism/policy split experiment C4 measures.

    EFCP neither knows addresses nor ports: it emits PDUs through the
    [send_pdu] closure (the IPC process fills in addressing and hands
    them to the RMT) and receives via {!handle_pdu}. *)

type t

val create :
  Rina_sim.Engine.t ->
  config:Policy.efcp ->
  in_order:bool ->
  local_cep:Types.cep_id ->
  remote_cep:Types.cep_id ->
  qos_id:Types.qos_id ->
  ?span_keys:int * int ->
  ?rank:int ->
  send_pdu:(Pdu.t -> int) ->
  deliver:(Pdu.view -> unit) ->
  on_error:(string -> unit) ->
  unit ->
  t
(** [deliver] receives user-data fields in the order mandated by
    [in_order], as views into the frames that carried them (held in the
    reorder buffer meanwhile, never copied); [on_error] fires once if
    the flow is declared broken (max retransmissions exceeded).

    [send_pdu] returns the egress port id the PDU was striped onto (0
    when the caller does not track paths); EFCP tags each outstanding
    PDU with it so {!repath} can find the ones stranded on a dead
    path.

    [span_keys] is [(tx_key, rx_key)] — the flight-recorder flow keys
    for outgoing and incoming PDUs ({!Pdu.flow_key} of the remote and
    local end respectively), so per-PDU trace ids join with the events
    relays emit.  Defaults to the bare CEP ids, which only stays unique
    within one IPC process.  [rank] stamps events with the DIF rank. *)

val send : t -> Pdu.view -> unit
(** Queue one user-data field (at most [config.mtu] bytes — the caller
    fragments first) for transmission; transparently buffered while
    the window is closed.  The view is kept until acknowledged, for
    retransmission, so its bytes must not change; a
    {!Pdu.with_headroom} view becomes the first transmission's frame
    without a copy. *)

val handle_pdu : t -> Pdu.t -> unit
(** Process an incoming [Dtp] or [Ack] PDU belonging to this
    connection; other types are counted and ignored. *)

val close : t -> unit
(** Cancel timers and drop state; no further callbacks fire. *)

val repath : t -> dead_path:int -> int
(** Fast failover: immediately retransmit every outstanding PDU whose
    last copy rode [dead_path] (lowest sequence first), so they stripe
    onto surviving paths now instead of waiting out their RTO.  Leaves
    the congestion window untouched — a path failure is not a
    congestion signal.  Returns the number of PDUs re-sent; 0 for
    unreliable, closed or errored flows. *)

val metrics : t -> Rina_util.Metrics.t
(** [pdus_sent], [pdus_rtx], [fast_rtx], [acks_sent], [acks_rcvd],
    [delivered], [dup_rcvd], [ooo_buffered], [gbn_discards],
    [backlog_hwm]... *)

val max_rto : float
(** Hard ceiling (seconds) on the retransmission timeout; backoff and
    [init_rto] are clamped to it.  Exported for the policy linter. *)

val in_flight : t -> int
(** PDUs sent and not yet acknowledged. *)

val backlog : t -> int
(** User-data fields waiting for the window to open. *)

val srtt : t -> float option
(** Smoothed RTT estimate, once at least one sample exists. *)

val congested : t -> bool
(** Whether this flow is under congestion pressure: an ECN back-off
    episode is active (the path has been marking recently, so sends
    are being paced), or the backlog exceeds a full window.  The DIF
    layer uses it to push congestion upward — marking upper-DIF frames
    that transit a congested lower flow (policy [pushback]). *)

val debug : t -> string
(** One-line internal state dump (sender/receiver counters, window,
    timer state) for tests and troubleshooting. *)
