(** Workload generation and per-SDU measurement.

    SDUs carry a header with their send timestamp and sequence number
    so the receiving side can compute one-way latency and detect loss
    without side channels. *)

val stamp : now:float -> seq:int -> size:int -> bytes
(** An SDU of exactly [size] bytes (minimum 16) carrying [now] and
    [seq]; the rest is padding. *)

val read_stamp : bytes -> (float * int) option
(** Recover (send time, seq); [None] if the SDU is too short. *)

val stamp_sealed : now:float -> seq:int -> size:int -> bytes
(** [stamp] plus a CRC-32 trailer over the whole SDU, so the receiver
    can detect payload corruption that escaped every lower-layer
    integrity check (the adversarial benchmark's "corrupt-escaped"
    count).  Minimum size is 20 bytes. *)

type sealed = Sealed_ok of float * int | Sealed_corrupt

val read_sealed : bytes -> sealed
(** Verify the trailer and recover (send time, seq). *)

(** {2 Flow-aware stamps and per-flow completion times}

    The plain stamps above assume one long-lived stream per sink.
    Short-flow workloads (incast, flash crowds) multiplex many flows
    into one receiving application, so these stamps additionally carry
    a flow id and a FIN marker on a flow's last SDU; the {!fct}
    registry turns FIN arrivals into flow completion times. *)

type flow_stamp = { fs_sent : float; fs_flow : int; fs_seq : int; fs_fin : bool }

val stamp_flow :
  now:float -> flow:int -> seq:int -> fin:bool -> size:int -> bytes
(** A CRC-sealed SDU of [size] bytes (minimum 24) carrying flow id,
    per-flow sequence number and the FIN marker. *)

val read_flow : bytes -> flow_stamp option
(** Verify the trailer and recover the flow stamp; [None] if the SDU
    is corrupt or not flow-stamped. *)

(** Per-flow completion bookkeeping. *)
type fct = {
  durations : Rina_util.Stats.t;  (** completed-flow durations (s) *)
  latencies : Rina_util.Stats.t;  (** per-SDU one-way latencies (s) *)
  mutable started : int;
  mutable completed : int;
  mutable fct_sdus : int;
  mutable fct_bytes : int;
  mutable fct_corrupt : int;  (** deliveries that failed the CRC *)
  opens : (int, float) Hashtbl.t;  (** flow id -> open time, while live *)
}

val fct : unit -> fct

val on_flow_sdu : fct -> now:float -> bytes -> unit
(** Account one arriving SDU; a FIN for an open flow completes it. *)

val unfinished : fct -> int list
(** Flows opened but not yet completed (sorted) — the livelock probe:
    after the drain, an admission-controlled run must leave none. *)

val fct_goodput : fct -> t0:float -> t1:float -> float
(** Delivered application bits/s over the window. *)

val flow_bulk :
  fct ->
  send:(bytes -> unit) ->
  now:float ->
  flow:int ->
  size:int ->
  sdu:int ->
  unit
(** Open [flow] in the registry and emit [size] bytes of payload as
    back-to-back flow-stamped SDUs of [sdu] bytes each, the last one
    FIN-marked — one short flow of an incast or flash-crowd workload.
    @raise Invalid_argument if [sdu <= 0]. *)

val flow_size : Rina_util.Prng.t -> alpha:float -> xmin:int -> cap:int -> int
(** One heavy-tailed ({!Rina_util.Prng.pareto}) flow size in bytes,
    clamped to [cap] — mice and elephants. *)

val poisson_arrivals :
  Rina_sim.Engine.t ->
  Rina_util.Prng.t ->
  rate:float ->
  until:float ->
  (int -> unit) ->
  unit
(** Fire the callback with arrival indices 0, 1, ... at exponentially
    spaced instants ([rate] arrivals/s on average) until virtual time
    passes [until] — the flash-crowd arrival process.
    @raise Invalid_argument if [rate <= 0]. *)

(** Aggregated receiver-side accounting. *)
type sink = {
  received : Rina_util.Stats.t;  (** one-way latencies (s) *)
  mutable count : int;
  mutable bytes : int;
  mutable last_arrival : float;
  mutable seen_max_seq : int;
}

val sink : unit -> sink

val on_sdu : sink -> now:float -> bytes -> unit
(** Account one arriving SDU. *)

val goodput : sink -> t0:float -> t1:float -> float
(** Delivered application bits/s over the window. *)

(** Senders; all take a [send] closure so they work over RINA flows,
    TCP connections or anything byte-oriented. *)

val bulk : send:(bytes -> unit) -> now:float -> count:int -> size:int -> unit
(** Emit [count] stamped SDUs back-to-back. *)

val cbr :
  Rina_sim.Engine.t ->
  send:(bytes -> unit) ->
  rate:float ->
  size:int ->
  until:float ->
  unit ->
  unit
(** Constant bit rate: schedule stamped SDUs of [size] bytes at [rate]
    bits/s until virtual time [until]. *)

val poisson_on_off :
  Rina_sim.Engine.t ->
  Rina_util.Prng.t ->
  send:(bytes -> unit) ->
  peak_rate:float ->
  mean_on:float ->
  mean_off:float ->
  size:int ->
  until:float ->
  unit ->
  unit
(** Exponentially distributed ON (sending at [peak_rate]) and OFF
    periods — the bursty workload for the utilisation experiment. *)
