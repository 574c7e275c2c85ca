(** Shim adaptation of raw media channels.

    The lowest-rank DIF is "tailored to the physical medium"; its IPC
    processes bind media channels directly.  [wrap] adds the minimal
    framing that tailoring needs in practice: a DIF tag so that frames
    of other DIFs sharing the same medium (or stray noise) are
    filtered out before they reach the RMT. *)

val wrap : dif:Types.dif_name -> Rina_sim.Chan.t -> Rina_sim.Chan.t
(** Prefix outgoing frames with a 4-byte tag derived from [dif];
    incoming frames with a different tag are dropped. *)

val tag_of_dif : Types.dif_name -> int
(** The 32-bit tag (FNV-1a hash of the DIF name). *)
