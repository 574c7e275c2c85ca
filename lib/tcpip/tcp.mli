(** TCP-like reliable transport for the baseline stack.

    Three-way handshake, cumulative acks, Jacobson RTO, slow start +
    AIMD, fast retransmit, RST for closed ports, FIN teardown.
    Sequence numbers count segments.

    Faithfully reproduced defects the experiments rely on:
    connections are identified by the (address, port) 4-tuple fixed at
    setup, so a connection dies with its interface address (mobility,
    F5) and cannot move to a second interface (multihoming, F4); ports
    are well known and addresses public (C2). *)

type stack
type conn

type state =
  | Closed
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait

val attach : Node.t -> stack
(** Install the TCP handler on a node. *)

val listen : stack -> port:int -> on_accept:(conn -> unit) -> unit
val unlisten : stack -> port:int -> unit

val connect :
  stack ->
  src:Ip.addr ->
  dst:Ip.addr ->
  dport:int ->
  on_result:((conn, string) result -> unit) ->
  unit
(** Active open from local address [src] (fixed for the connection's
    lifetime).  [on_result] fires once: [Ok] when established, [Error]
    on RST or handshake timeout. *)

val send : conn -> bytes -> unit
(** Queue application data (segmented to the MSS internally). *)

val set_on_receive : conn -> (bytes -> unit) -> unit
val set_on_error : conn -> (string -> unit) -> unit
(** Fires when the connection is reset or retransmissions are
    exhausted — e.g. after its path or address vanished. *)

val set_on_close : conn -> (unit -> unit) -> unit
val close : conn -> unit

val state : conn -> state
val remote_endpoint : conn -> Ip.addr * int
