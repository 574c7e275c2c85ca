type pdu_type = Dtp | Ack | Mgmt | Hello

type view = { buf : bytes; off : int; len : int }

let empty_view = { buf = Bytes.empty; off = 0; len = 0 }

(* Most Acks carry no payload: they share one view instead of each
   allocating its own. *)
let view_of_bytes b =
  if Bytes.length b = 0 then empty_view else { buf = b; off = 0; len = Bytes.length b }

let bytes_of_view v = Bytes.sub v.buf v.off v.len

type t = {
  pdu_type : pdu_type;
  dst_addr : Types.address;
  src_addr : Types.address;
  dst_cep : Types.cep_id;
  src_cep : Types.cep_id;
  qos_id : Types.qos_id;
  seq : int;
  ack : int;
  window : int;
  ttl : int;
  flags : int;
  payload : view;
}

let flag_drf = 1

let flag_fin = 2

let flag_ecn = 4

let has_flag t flag = t.flags land flag <> 0

let make ~pdu_type ~dst_addr ~src_addr ?(dst_cep = 0) ?(src_cep = 0) ?(qos_id = 0)
    ?(seq = 0) ?(ack = 0) ?(window = 0) ?(ttl = 32) ?(flags = 0) payload =
  {
    pdu_type;
    dst_addr;
    src_addr;
    dst_cep;
    src_cep;
    qos_id;
    seq;
    ack;
    window;
    ttl;
    flags;
    payload = view_of_bytes payload;
  }

let version = 1

let type_code = function Dtp -> 0 | Ack -> 1 | Mgmt -> 2 | Hello -> 3

let type_of_code = function
  | 0 -> Some Dtp
  | 1 -> Some Ack
  | 2 -> Some Mgmt
  | 3 -> Some Hello
  | _ -> None

(* Fixed wire offsets (big-endian, same layout the codec-based encoder
   produced): version(0) type(1) dst_addr(2) src_addr(6) dst_cep(10)
   src_cep(14) qos_id(18,u16) seq(20) ack(24) window(28) ttl(32,u8)
   flags(33,u8) payload_len(34,u32) payload(38..). *)
let off_dst_addr = 2

let off_dst_cep = 10

let off_qos_id = 18

let off_seq = 20

let ttl_offset = 32

let flags_offset = 33

let off_payload_len = 34

(* version + type + 4 addr/cep words + qos + seq + ack + window + ttl +
   flags + payload length prefix *)
let header_size = 1 + 1 + (4 * 4) + 2 + 4 + 4 + 4 + 1 + 1 + 4

let encoded_size t = header_size + t.payload.len

(* A buffer laid out as the frame it will become: [header_size] bytes
   of headroom, [len] bytes of payload, then room for the trailer.
   Version 0 in the headroom marks it unclaimed; [encode_frame] claims
   it by writing the PCI, whose version byte is never 0. *)
let with_headroom len =
  let buf = Bytes.create (header_size + len + Sdu_protection.overhead) in
  Bytes.set_uint8 buf 0 0;
  { buf; off = header_size; len }

let check_u8 what v =
  if v < 0 || v > 0xFF then invalid_arg ("Pdu.encode: " ^ what ^ " out of range")

let check_u16 what v =
  if v < 0 || v > 0xFFFF then
    invalid_arg ("Pdu.encode: " ^ what ^ " out of range")

let check_u32 what v =
  if v < 0 || v > 0xFFFFFFFF then
    invalid_arg ("Pdu.encode: " ^ what ^ " out of range")

(* Write the PCI into [b.(0 .. header_size-1)]; the payload goes
   behind it, at [header_size]. *)
let write_header b t =
  check_u32 "dst_addr" t.dst_addr;
  check_u32 "src_addr" t.src_addr;
  check_u32 "dst_cep" t.dst_cep;
  check_u32 "src_cep" t.src_cep;
  check_u16 "qos_id" t.qos_id;
  check_u32 "seq" t.seq;
  check_u32 "ack" t.ack;
  check_u32 "window" t.window;
  check_u8 "ttl" t.ttl;
  check_u8 "flags" t.flags;
  Bytes.set_uint8 b 0 version;
  Bytes.set_uint8 b 1 (type_code t.pdu_type);
  Bytes.set_int32_be b off_dst_addr (Int32.of_int t.dst_addr);
  Bytes.set_int32_be b 6 (Int32.of_int t.src_addr);
  Bytes.set_int32_be b off_dst_cep (Int32.of_int t.dst_cep);
  Bytes.set_int32_be b 14 (Int32.of_int t.src_cep);
  Bytes.set_uint16_be b off_qos_id t.qos_id;
  Bytes.set_int32_be b off_seq (Int32.of_int t.seq);
  Bytes.set_int32_be b 24 (Int32.of_int t.ack);
  Bytes.set_int32_be b 28 (Int32.of_int t.window);
  Bytes.set_uint8 b ttl_offset t.ttl;
  Bytes.set_uint8 b 33 t.flags;
  Bytes.set_int32_be b off_payload_len (Int32.of_int t.payload.len)

let encode t =
  let b = Bytes.create (encoded_size t) in
  write_header b t;
  Bytes.blit t.payload.buf t.payload.off b header_size t.payload.len;
  b

(* A payload built by [with_headroom] and not yet claimed becomes the
   frame itself: the PCI and the CRC are written around it and nothing
   is copied.  Any other payload, including a claimed one (a
   retransmission, whose first copy relays may be rewriting while it
   is still in flight), is copied into a fresh frame. *)
let encode_frame t =
  let v = t.payload in
  let n = header_size + v.len in
  let b =
    if
      v.off = header_size
      && Bytes.length v.buf = n + Sdu_protection.overhead
      && Bytes.get_uint8 v.buf 0 = 0
    then v.buf
    else begin
      let b = Bytes.create (n + Sdu_protection.overhead) in
      Bytes.blit v.buf v.off b header_size v.len;
      b
    end
  in
  write_header b t;
  Sdu_protection.seal b;
  b

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

(* Decode the PDU occupying [b.(0 .. len-1)] — [b] itself may be a
   longer buffer (a protected frame whose trailer is excluded via
   [len]).  The payload is a view into [b], never a copy.
   [with_payload:false] leaves the empty view instead, which saves
   allocating one: enough for every relay decision (forwarding,
   classification, ingress filtering all read header fields only),
   made explicit by the two wrappers below. *)
let decode_at b ~len ~with_payload =
  if len < 1 then Error "truncated PDU: missing version byte"
  else
    let v = Bytes.get_uint8 b 0 in
    if v <> version then Error (Printf.sprintf "unsupported PDU version %d" v)
    else if len < 2 then Error "truncated PDU: missing type byte"
    else
      match type_of_code (Bytes.get_uint8 b 1) with
      | None ->
        Error (Printf.sprintf "unknown PDU type code %d" (Bytes.get_uint8 b 1))
      | Some pdu_type ->
        if len < header_size then Error "truncated PDU header"
        else
          let plen = get_u32 b off_payload_len in
          if header_size + plen > len then Error "truncated PDU payload"
          else if header_size + plen < len then
            Error
              (Printf.sprintf "%d trailing bytes after PDU"
                 (len - header_size - plen))
          else
            Ok
              {
                pdu_type;
                dst_addr = get_u32 b off_dst_addr;
                src_addr = get_u32 b 6;
                dst_cep = get_u32 b off_dst_cep;
                src_cep = get_u32 b 14;
                qos_id = Bytes.get_uint16_be b off_qos_id;
                seq = get_u32 b off_seq;
                ack = get_u32 b 24;
                window = get_u32 b 28;
                ttl = Bytes.get_uint8 b ttl_offset;
                flags = Bytes.get_uint8 b 33;
                payload =
                  (if with_payload then { buf = b; off = header_size; len = plen }
                   else empty_view);
              }

let decode_sub b ~len = decode_at b ~len ~with_payload:true

let decode_header b ~len = decode_at b ~len ~with_payload:false

let decode frame = decode_sub frame ~len:(Bytes.length frame)

let pp fmt t =
  let kind =
    match t.pdu_type with Dtp -> "DTP" | Ack -> "ACK" | Mgmt -> "MGMT" | Hello -> "HELLO"
  in
  Format.fprintf fmt "%s %d->%d cep %d->%d seq=%d ack=%d w=%d len=%d" kind
    t.src_addr t.dst_addr t.src_cep t.dst_cep t.seq t.ack t.window
    t.payload.len

(* Flow key for the flight recorder: the destination end of the
   connection identifies the flow, so the sender (which addressed the
   PDU), every relay that decodes it and the receiver (whose address
   and CEP these are) derive the same key — and hence, mixed with the
   sequence number, the same trace id. *)
let flow_key t = (t.dst_addr lsl 16) lor (t.dst_cep land 0xFFFF)

let span t =
  match t.pdu_type with
  | Dtp -> Rina_util.Flight.span_of ~flow:(flow_key t) ~seq:t.seq
  | Ack | Mgmt | Hello -> 0

(* Header-field accessors that read straight out of an encoded frame —
   the relay data path never materialises a record just to pick a
   queue or tag a flight event.  Callers must have verified the frame
   first ([Sdu_protection.verify_len]), so offsets are in range. *)
module Peek = struct
  let dst_addr b = get_u32 b off_dst_addr

  let dst_cep b = get_u32 b off_dst_cep

  let seq b = get_u32 b off_seq

  let flags b = Bytes.get_uint8 b flags_offset

  let pdu_type b =
    if Bytes.length b < 2 then None else type_of_code (Bytes.get_uint8 b 1)

  let is_dtp b = Bytes.get_uint8 b 1 = 0

  let span b =
    if is_dtp b then
      Rina_util.Flight.span_of
        ~flow:((dst_addr b lsl 16) lor (dst_cep b land 0xFFFF))
        ~seq:(seq b)
    else 0
end

(* ECN-style congestion marking, applied to encoded frames in place.
   The frame keeps its SDU-protection trailer valid: set the flag bit,
   then reseal — same pattern the relay uses for the TTL decrement. *)
let frame_has_ecn frame = Peek.flags frame land flag_ecn <> 0

let mark_ecn_frame frame =
  let f = Peek.flags frame in
  if f land flag_ecn = 0 then begin
    Bytes.set_uint8 frame flags_offset (f lor flag_ecn);
    Sdu_protection.seal frame
  end
