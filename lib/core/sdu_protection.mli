(** SDU protection: integrity check appended to every frame a DIF hands
    to the layer below.

    Implements CRC-32 (IEEE 802.3 polynomial) with two kernels that
    give the same value.  On x86-64 CPUs with PCLMULQDQ, a range of 64
    bytes or more is folded with carry-less multiplies in a C stub, 64
    bytes at a time, down to a tail of 0-15 bytes.  A slicing-by-8 loop
    (eight table lookups per 8-byte word, bytewise for the last 0-7
    bytes) finishes that tail, and computes every shorter range and
    every range on other hosts.  A member
    receiving a frame that fails the check drops it — this is also the
    first line of defence against the injection attack in experiment
    C2, since an attacker that is not a member does not even share the
    framing discipline. *)

val crc32 : bytes -> int
(** CRC-32 of the whole byte string (masked to 32 bits). *)

val crc32_sub : bytes -> pos:int -> len:int -> int
(** CRC-32 of a sub-range, without copying it out.
    @raise Invalid_argument if [pos] and [len] do not designate a valid
    range of the byte string. *)

val protect : bytes -> bytes
(** Append the 4-byte big-endian CRC.  No stack path calls this or
    {!verify}: frames are sealed by [Pdu.encode_frame] and checked by
    {!verify_len}, and tests use these two as the reference for that
    path. *)

val seal : bytes -> unit
(** Recompute the CRC of a frame's body in place and store it in the
    trailer — for frames edited after they were sealed (e.g. a relay
    decrementing the TTL in the frame it received). *)

val verify : bytes -> bytes option
(** Check and strip the trailer; [None] if too short or corrupt. *)

val verify_len : bytes -> int option
(** Check the trailer and return the body length without copying;
    [None] if too short or corrupt.  The hot path reads header fields
    straight out of the frame. *)

val overhead : int
(** Bytes added by [protect]. *)
