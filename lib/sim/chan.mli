(** The physical-medium abstraction every shim DIF sits on.

    A [t] is one endpoint's view of a unidirectional-send /
    unidirectional-receive byte pipe: wired link halves and wireless
    channels both present this interface, so the RINA shim IPC process
    is written once.  Watchers are notified on carrier up/down, which
    is what drives multihoming failover and mobility handoff.

    Frames are passed, not copied, so one rule governs who may touch
    them.  A channel hands each sent frame, as the same byte string, to
    at most one receiver: links, radios and {!pair} never deliver one
    frame twice, and a channel that duplicates or corrupts a frame (the
    mangler) copies it first.  After [send], the sender may still read
    the frame's payload region, because EFCP keeps it for
    retransmission.  The receiver may rewrite the header and trailer
    bytes (a relay's TTL, an ECN flag, the CRC).  No one writes the
    payload region. *)

type t = {
  send : bytes -> unit;
      (** Transmit one frame; silently dropped if the carrier is down,
          the queue overflows or the loss model fires. *)
  set_receiver : (bytes -> unit) -> unit;
      (** Register the frame-arrival callback (one receiver). *)
  is_up : unit -> bool;  (** Current carrier state. *)
  on_carrier : (bool -> unit) -> unit;
      (** Add a carrier up/down watcher (multiple allowed). *)
}

val null : unit -> t
(** A channel that swallows everything (useful in tests). *)

val pair : unit -> t * t
(** An ideal, zero-latency, lossless in-memory channel pair: whatever
    one side sends, the other receives immediately (same engine turn).
    Used by unit tests to exercise protocol machines without a
    simulator. *)
