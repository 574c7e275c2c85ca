(** Routing and directory management: the replicated state of a DIF.

    A member originates and withdraws its LSA, schedules route
    recomputation, floods directory entries under [/dir/], pushes its
    whole state to a new neighbour (database exchange) and repairs
    divergence by refresh, LSA aging, anti-entropy and rumor
    correction.  A peer may write or delete only [/dir/] objects. *)

val dir_path : Types.apn -> string
(** The directory path of an application name. *)

val dir_entries : Member.t -> (string * Rib.value) list
(** The replicated directory entries, sorted by path. *)

val publish_app : Member.t -> Types.apn -> unit
(** Map the name to this member's address and flood the entry. *)

val flood_rib_delete : Member.t -> ?except_port:Types.port_id -> string -> unit
(** Flood the deletion of a directory entry. *)

val schedule_recompute : Member.t -> unit
(** Recompute routes once the current burst of changes is done; a
    graph and address unchanged since the last run keep the tables. *)

val originate_lsa : Member.t -> (Types.address * float) list -> unit
(** Install and flood our LSA with these neighbours, under the next
    sequence number. *)

val rebuild_own_lsa : Member.t -> unit
(** Re-originate our LSA if the live adjacency set changed, and tell
    isolation watchers when it turns empty or non-empty. *)

val withdraw_lsa :
  Member.t -> ?except_port:Types.port_id -> tally:string -> Types.address -> unit
(** Remove an origin's LSA and flood the withdrawal, counting [tally]
    if it was held. *)

val sync_peer : Member.t -> Member.nport -> unit
(** Send our whole LSDB and directory to the peer behind the port. *)

(** {2 Received updates} *)

val handle_rib_write : Member.t -> Types.port_id option -> Riep.t -> unit
val handle_rib_delete : Member.t -> Types.port_id option -> Riep.t -> unit
val handle_lsa : Member.t -> Types.port_id option -> Riep.t -> unit

val handle_lsa_delete : Member.t -> Types.port_id option -> Riep.t -> unit
(** A withdrawal of our own origin is answered with a fresh LSA. *)

(** {2 Periodic maintenance} *)

val refresh_state : Member.t -> unit
(** Re-flood our LSA and our applications' directory entries. *)

val age_lsdb : Member.t -> unit
(** Withdraw origins not refreshed within [lsa_max_age]. *)

val anti_entropy_tick : Member.t -> unit
(** Push our whole state to the next adjacent peer, round robin. *)
