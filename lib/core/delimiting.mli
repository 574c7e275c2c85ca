(** SDU delimiting: fragmentation of application SDUs into user-data
    fields no larger than the DIF's MTU, and exact reassembly on the
    receiving side.

    Each fragment carries a 1-byte header with FIRST/LAST flags.  The
    reassembler relies on EFCP's in-order delivery for reliable flows;
    on unreliable flows a lost fragment makes it discard the partial
    SDU when the next FIRST arrives (counted by {!discarded}).

    Fragments are {!Pdu.view}s, so an SDU's bytes are copied once on
    each side of a rank: into the buffer that becomes the frame when it
    is fragmented, and out of the received frames when it is
    reassembled. *)

val fragment : mtu:int -> bytes -> Pdu.view list
(** Split an SDU into delimited fragments, each of length at most
    [mtu] + {!overhead}, each in its own {!Pdu.with_headroom} buffer.
    The empty SDU yields one fragment.
    @raise Invalid_argument if [mtu <= 0]. *)

val overhead : int
(** Header bytes per fragment. *)

type reassembler

val create_reassembler : unit -> reassembler

val push : reassembler -> Pdu.view -> bytes option
(** Feed one delimited fragment (in delivery order); returns the
    complete SDU, copied out of its fragments, when its LAST fragment
    arrives.  The reassembler keeps the views of a partial SDU, so the
    buffers they view must not change until then.  Total: a fragment
    too short to hold the header is dropped and counted in
    {!discarded}. *)

val discarded : reassembler -> int
(** SDUs dropped because a new SDU began mid-reassembly, plus
    fragments dropped as malformed. *)
