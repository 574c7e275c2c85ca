(** Protocol data unit of an IPC layer.

    One PDU format serves the whole DIF: data transfer ([Dtp]), EFCP
    acknowledgement/flow-control ([Ack]), layer management ([Mgmt],
    carrying an encoded RIEP message) and neighbour-scope identity
    announcements ([Hello]).  PDUs are serialised to bytes whenever
    they cross an (N-1) boundary, so lower layers see opaque frames. *)

type pdu_type =
  | Dtp    (** user data, sequenced by EFCP *)
  | Ack    (** cumulative acknowledgement + credit window *)
  | Mgmt   (** RIEP message for the IPC management task *)
  | Hello  (** neighbour-scope: sender identity for the receiving port *)

(** [len] bytes at offset [off] of [buf]: a payload carried without
    being copied out of the buffer that holds it.  A received PDU's
    payload is a view into the frame it arrived in; a fragment built by
    {!Delimiting.fragment} is a view into the buffer that becomes its
    frame.  Views are read-only: the payload region of a buffer is
    never written after it is filled (see {!Rina_sim.Chan.t}). *)
type view = { buf : bytes; off : int; len : int }

val empty_view : view

val view_of_bytes : bytes -> view
(** The whole byte string, not copied. *)

val bytes_of_view : view -> bytes
(** A fresh copy of the viewed bytes, for consumers that keep or parse
    a payload (management, hellos, SACK blocks). *)

val with_headroom : int -> view
(** [with_headroom len] is a view of [len] unfilled bytes in a fresh
    buffer that has {!header_size} bytes of headroom in front and
    [Sdu_protection.overhead] bytes of tailroom behind: once filled, it
    is the payload {!encode_frame} encodes in place. *)

type t = {
  pdu_type : pdu_type;
  dst_addr : Types.address;  (** 0 = neighbour scope (this hop only) *)
  src_addr : Types.address;
  dst_cep : Types.cep_id;
  src_cep : Types.cep_id;
  qos_id : Types.qos_id;
  seq : int;      (** DTP sequence number *)
  ack : int;      (** ACK: next expected sequence number *)
  window : int;   (** ACK: receive credit in PDUs *)
  ttl : int;
  flags : int;
  payload : view;
}

val flag_drf : int
(** Data-run flag: first PDU of a connection's data run. *)

val flag_fin : int
(** Final PDU of a flow. *)

val flag_ecn : int
(** Congestion-experienced mark: set by an RMT whose queue is over the
    DIF's [mark_threshold] (or by push-back from a congested lower
    flow); the receiving EFCP echoes it on acks so the sender backs
    off without a loss. *)

val has_flag : t -> int -> bool

val make :
  pdu_type:pdu_type ->
  dst_addr:Types.address ->
  src_addr:Types.address ->
  ?dst_cep:Types.cep_id ->
  ?src_cep:Types.cep_id ->
  ?qos_id:Types.qos_id ->
  ?seq:int ->
  ?ack:int ->
  ?window:int ->
  ?ttl:int ->
  ?flags:int ->
  bytes ->
  t
(** Build a PDU whose payload views the whole byte string; defaults:
    ceps 0, qos 0, seq/ack/window 0, ttl 32, flags 0. *)

val encode : t -> bytes
(** Wire form, including a version byte.  No stack path calls this or
    {!decode}: they are the reference the frame path is tested against
    ([test_pdu_encode_frame_in_place] and the encode/decode round-trip
    property). *)

val encode_frame : t -> bytes
(** Wire form with the {!Sdu_protection} trailer already appended —
    what a sending EFCP hands to the RMT, valid to put on an (N-1)
    channel as-is.  A payload from {!with_headroom} that was never
    encoded becomes the frame: the PCI and the trailer are written
    around it in place and its buffer is returned.  Every other payload,
    including one already encoded once (a retransmission), is copied
    into a fresh frame, because the first frame may still be in flight
    while relays rewrite its header. *)

val decode : bytes -> (t, string) result
(** Parse a wire frame; [Error] describes the first malformation. *)

val decode_sub : bytes -> len:int -> (t, string) result
(** Like {!decode} but parses only the first [len] bytes of the
    buffer, so a protected frame is decoded in place.  The payload is a
    view into the buffer, at {!header_size}: nothing is copied, and the
    PDU keeps the frame alive for as long as it keeps the payload. *)

val decode_header : bytes -> len:int -> (t, string) result
(** Like {!decode_sub} but leaves [payload = empty_view], which
    allocates no view — sufficient for relay decisions, which read
    header fields only. *)

val header_size : int
(** Bytes of overhead [encode] adds on top of the payload. *)

val encoded_size : t -> int
(** [header_size + payload.len]. *)

val ttl_offset : int
(** Byte offset of the TTL field in the wire form — a relay decrements
    it in place, in the frame its channel handed it, rather than
    re-encoding the PDU. *)

(** Read individual header fields straight out of an encoded frame
    (which must have passed [Sdu_protection.verify_len]). *)
module Peek : sig
  val dst_addr : bytes -> int

  val dst_cep : bytes -> int

  val seq : bytes -> int

  val flags : bytes -> int

  val pdu_type : bytes -> pdu_type option
  (** [None] for a frame too short to carry a type byte or with an
      unknown type code; total on any bytes. *)

  val is_dtp : bytes -> bool

  val span : bytes -> int
  (** Flight-recorder trace id, equal to {!span} of the decoded PDU. *)
end

val frame_has_ecn : bytes -> bool
(** Whether an encoded frame already carries {!flag_ecn}. *)

val mark_ecn_frame : bytes -> unit
(** Set {!flag_ecn} in an encoded, protected frame in place and reseal
    the {!Sdu_protection} trailer (no-op if already marked). *)

val pp : Format.formatter -> t -> unit

val flow_key : t -> int
(** Flight-recorder flow key: destination address and CEP packed into
    one int, identical at the sender, every decoding relay and the
    receiver. *)

val span : t -> int
(** Flight-recorder trace id for a [Dtp] PDU
    ([Rina_util.Flight.span_of] over {!flow_key} and [seq]); 0 for
    other PDU types. *)
