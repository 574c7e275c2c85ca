(** Liveness: hellos, keepalives, dead peers and path health.

    Hellos bind a port to a peer's address.  Keepalives declare a silent
    peer dead and withdraw its LSA.  When the multipath monitor is
    armed, path probes demote paths and fail over the PDUs stranded on
    a dead one. *)

val handle_hello : Member.t -> Types.port_id -> Pdu.t -> unit
(** Learn or refresh the peer behind the port, and join through it if
    this process is not yet a member. *)

val hello_tick : Member.t -> unit
(** Send hellos, rebuild our LSA, and refresh and age routing state. *)

val keepalive_tick : Member.t -> unit

val multipath_tick : Member.t -> unit

val touch_port : Member.t -> Types.port_id -> unit
(** Note proof of life on the port. *)

val answer_probe : Member.t -> Types.port_id -> Riep.t -> unit
(** Answer a keepalive or path probe. *)

val handle_path_probe_r : Member.t -> Types.port_id -> Riep.t -> unit

val carrier : Member.t -> Member.nport -> bool -> unit
(** The port's carrier went up or down. *)
