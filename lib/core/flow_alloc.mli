(** The flow allocator: requests, acceptance and teardown of flows.

    A requester sends the destination member an [M_create flow]
    request.  It retransmits it on timeout and backs off on a busy
    answer.  The destination checks the ACL and its admission limit,
    then creates the EFCP state of its end.  The flow-request wire
    format lives here. *)

type flow_req = {
  fr_src_app : Types.apn;
  fr_dst_app : Types.apn;
  fr_qos_id : Types.qos_id;
  fr_src_addr : Types.address;
  fr_src_cep : Types.cep_id;
}

val encode_flow_req : flow_req -> bytes
(** @raise Invalid_argument if a number does not fit its field. *)

val decode_flow_req : bytes -> (flow_req, string) result
(** Total: [Error] on any malformed input. *)

val request :
  Member.t ->
  src:Types.apn ->
  dst:Types.apn ->
  qos_id:Types.qos_id ->
  on_result:((Member.flow, string) result -> unit) ->
  Types.address ->
  unit
(** Ask the member at the address for a flow from [src] to [dst]. *)

val handle_flow_create : Member.t -> Riep.t -> unit
val handle_flow_delete : Member.t -> Riep.t -> unit

val close_all_flows : Member.t -> notify_peer:bool -> unit
