(** Resource Information Exchange Protocol.

    The management protocol of a DIF: a small request/response
    vocabulary over named RIB objects (CDAP-like).  RIEP messages
    travel inside [Mgmt] PDUs between the management tasks of IPC
    processes; everything long-timescale — enrollment, directory
    updates, link-state flooding, flow allocation — is an operation on
    a RIB object expressed in this protocol. *)

type opcode =
  | M_connect   (** begin enrollment (application connect) *)
  | M_connect_r
  | M_release   (** leave the DIF *)
  | M_create    (** create an object (flow request, directory entry...) *)
  | M_create_r
  | M_delete
  | M_delete_r
  | M_read
  | M_read_r
  | M_write     (** unsolicited state update (LSA flood, dir sync) *)
  | M_start
  | M_stop

type t = {
  opcode : opcode;
  obj_class : string;  (** e.g. ["flow"], ["lsa"], ["directory"], ["enrollment"] *)
  obj_name : string;   (** RIB path the operation targets *)
  obj_value : Rib.value option;
  invoke_id : int;     (** correlates a response with its request *)
  result : int;        (** 0 = success in [*_r] messages *)
  result_reason : string;
  version : int;
      (** object version for [M_write] RIB updates; [0] = unversioned
          (legacy accept-if-different semantics) *)
  origin : int;  (** address of the object's owner; [0] = unversioned *)
}

val make :
  opcode:opcode ->
  ?obj_class:string ->
  ?obj_name:string ->
  ?obj_value:Rib.value ->
  ?invoke_id:int ->
  ?result:int ->
  ?result_reason:string ->
  ?version:int ->
  ?origin:int ->
  unit ->
  t

val encode : t -> bytes
val decode : bytes -> (t, string) result

val trace_label : t -> string
(** Compact flight-recorder label for a message:
    ["<opcode>/<obj_class>"], e.g. ["M_WRITE/lsa"]. *)

val is_response : t -> bool

val response_opcode : opcode -> opcode option
(** [response_opcode M_create = Some M_create_r]; [None] for opcodes
    with no paired response. *)

val pp : Format.formatter -> t -> unit
