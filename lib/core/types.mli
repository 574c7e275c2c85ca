(** Fundamental identifier types of the IPC model.

    The paper's naming discipline is enforced by these types:
    applications are named by {!apn} (location-independent, the only
    name an application ever handles); {!address} is an identifier
    *internal* to one DIF and never escapes the library's public API;
    {!port_id} is a local, dynamically assigned handle to one end of a
    flow at the layer boundary, free of any application-name semantics
    (no well-known ports). *)

type apn = { ap_name : string; ap_instance : string }
(** Application process name: a globally unambiguous, location
    independent name plus an instance qualifier. *)

val apn : ?instance:string -> string -> apn
(** [apn name] with instance defaulting to ["1"]. *)

val apn_to_string : apn -> string
(** ["name/instance"] rendering. *)

val apn_of_string : string -> apn
(** Inverse of {!apn_to_string}; a missing ["/instance"] part defaults
    to instance ["1"]. *)

val apn_equal : apn -> apn -> bool
val apn_compare : apn -> apn -> int

type dif_name = string
(** Name of a distributed IPC facility. *)

type address = int
(** DIF-internal address of an IPC process.  [0] is reserved for
    "unknown / not yet enrolled"; valid member addresses start at 1.
    An address is a synonym usable only inside its own DIF. *)

val no_address : address

type port_id = int
(** Local identifier of one end of a flow at the layer boundary. *)

type cep_id = int
(** Connection-endpoint id, the EFCP-internal counterpart of a port;
    [0] is reserved for the management task's "endpoint". *)

type qos_id = int
(** Identifier of a QoS cube within a DIF. *)

val pp_apn : Format.formatter -> apn -> unit
val pp_address : Format.formatter -> address -> unit
