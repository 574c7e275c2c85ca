(** Enrollment: how a process joins a DIF.

    A member admits a joiner that presents the DIF's credentials and
    answers with a snapshot of the directory and the LSDB.  Addresses
    come from the namespace manager, the founding member at address 1:
    another member asks it over routed management.  A joiner retries
    with exponential backoff.  The hello and snapshot wire formats live
    here. *)

val encode_hello : name:string -> addr:Types.address -> token:int -> bytes
(** An identity hello: the sender's name, address and hello token. *)

val decode_hello : bytes -> (string * Types.address * int, string) result
(** Total: [Error] on any malformed input. *)

val hello_token : Member.t -> name:string -> addr:Types.address -> int
(** The token proving knowledge of the DIF's secret. *)

val encode_snapshot :
  granted:Types.address ->
  entries:(string * Rib.value) list ->
  lsas:Routing.Lsa.t list ->
  bytes
(** An admission's answer: the granted address, directory entries and
    LSAs.  @raise Invalid_argument if [granted] is not a u32. *)

val decode_snapshot :
  bytes ->
  (Types.address * (string * Rib.value) list * Routing.Lsa.t list, string) result
(** Total: [Error] on any malformed input and on a grant of address 0. *)

val send_hello : Member.t -> Member.nport -> unit

val handle_connect : Member.t -> Types.port_id -> Riep.t -> unit
(** A joiner's [M_connect]: admit, deny, or ask the namespace manager
    for an address. *)

val handle_addr_alloc : Member.t -> Riep.t -> from_addr:Types.address -> unit
(** The namespace manager grants the next free address. *)

val handle_connect_r : Member.t -> Types.port_id -> Riep.t -> unit
(** The joiner installs the snapshot and becomes a member. *)

val run_enrolled_hooks : Member.t -> unit

val start_enrollment : Member.t -> Member.nport -> unit
(** Join through the member behind the port, unless already joining,
    joined or told not to. *)
