module Chan = Rina_sim.Chan
module Metrics = Rina_util.Metrics

let broadcast_addr = 0xFFFFFFFF

type route = {
  rt_if : int;
  rt_next_hop : Ip.addr option;
  rt_metric : int;
  rt_learned_from : Ip.addr option;
  mutable rt_expires : float;
}

type iface = {
  if_id : int;
  chan : Chan.t;
  mutable if_addr : Ip.addr;
  mutable if_prefix : Ip.prefix;
}

type t = {
  engine : Rina_sim.Engine.t;
  flight : Rina_util.Flight.recorder;  (* the engine's *)
  name : string;
  forwarding : bool;
  ifaces : (int, iface) Hashtbl.t;
  mutable next_if : int;
  table : route Lpm.t;
  handlers : (int, Packet.t -> in_if:int -> unit) Hashtbl.t;  (* keyed by proto code *)
  mutable forward_hook : (Packet.t -> in_if:int -> Packet.t option) option;
  mutable iface_watchers : (int -> bool -> unit) list;
  metrics : Metrics.t;
}

let create engine ?(forwarding = false) name =
  {
    engine;
    flight = Rina_sim.Engine.flight engine;
    name;
    forwarding;
    ifaces = Hashtbl.create 4;
    next_if = 1;
    table = Lpm.create ();
    handlers = Hashtbl.create 4;
    forward_hook = None;
    iface_watchers = [];
    metrics = Metrics.create ();
  }

let engine t = t.engine

let node_name t = t.name

let proto_key p = Packet.(match p with P_udp -> 17 | P_tcp -> 6 | P_rip -> 520 | P_tunnel -> 4)

let set_proto_handler t proto f = Hashtbl.replace t.handlers (proto_key proto) f

let set_forward_hook t f = t.forward_hook <- Some f

let on_iface_change t f = t.iface_watchers <- f :: t.iface_watchers

let is_local t addr =
  addr = broadcast_addr || Hashtbl.fold (fun _ i acc -> acc || i.if_addr = addr) t.ifaces false

let iface_addr t if_id =
  Option.map (fun i -> i.if_addr) (Hashtbl.find_opt t.ifaces if_id)

let iface_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.ifaces [] |> List.sort compare

let install_route t prefix route = Lpm.insert t.table prefix route

let remove_route t prefix = Lpm.remove t.table prefix

let add_static_route t prefix ?next_hop ~if_id () =
  install_route t prefix
    {
      rt_if = if_id;
      rt_next_hop = next_hop;
      rt_metric = 1;
      rt_learned_from = None;
      rt_expires = infinity;
    }

let routes t = Lpm.entries t.table

let table_size t = Lpm.size t.table

(* Flight-recorder emissions for the baseline stack mirror the RINA
   side: component "ip:<node>", flow = destination address, size =
   payload bytes.  The helper guards inside, so the disabled path
   allocates nothing. *)
module Flight = Rina_util.Flight

let[@inline] flight_pkt t (pkt : Packet.t) kind =
  if Flight.on t.flight then
    Flight.emit_to t.flight ~component:("ip:" ^ t.name) ~flow:pkt.Packet.dst
      ~size:(Bytes.length pkt.Packet.payload) kind

let deliver t pkt ~in_if =
  Metrics.incr t.metrics "delivered";
  flight_pkt t pkt Flight.Pdu_recvd;
  match Hashtbl.find_opt t.handlers (proto_key pkt.Packet.proto) with
  | Some f -> f pkt ~in_if
  | None -> Metrics.incr t.metrics "no_handler"

let transmit t if_id pkt =
  match Hashtbl.find_opt t.ifaces if_id with
  | None -> Metrics.incr t.metrics "no_route"
  | Some i ->
    Metrics.incr t.metrics "ip_tx";
    flight_pkt t pkt Flight.Pdu_sent;
    i.chan.Chan.send (Packet.encode pkt)

let send_on_iface = transmit

let route_and_send t pkt =
  match Lpm.lookup t.table pkt.Packet.dst with
  | None ->
    flight_pkt t pkt (Flight.Pdu_dropped Flight.R_no_route);
    Metrics.incr t.metrics "no_route"
  | Some r ->
    if r.rt_metric >= 16 then begin
      flight_pkt t pkt (Flight.Pdu_dropped Flight.R_no_route);
      Metrics.incr t.metrics "no_route"
    end
    else transmit t r.rt_if pkt

let send_ip t pkt = route_and_send t pkt

let forward t pkt ~in_if =
  if pkt.Packet.ttl <= 1 then begin
    flight_pkt t pkt (Flight.Pdu_dropped Flight.R_ttl_expired);
    Metrics.incr t.metrics "ttl_expired"
  end
  else begin
    let pkt = { pkt with Packet.ttl = pkt.Packet.ttl - 1 } in
    let pkt =
      match t.forward_hook with
      | Some hook -> hook pkt ~in_if
      | None -> Some pkt
    in
    match pkt with
    | None -> ()
    | Some pkt ->
      Metrics.incr t.metrics "forwarded";
      route_and_send t pkt
  end

let on_frame t if_id frame =
  match Packet.decode frame with
  | Error _ ->
    if Flight.on t.flight then
      Flight.emit_to t.flight ~component:("ip:" ^ t.name)
        ~size:(Bytes.length frame) (Flight.Pdu_dropped Flight.R_decode);
    Metrics.incr t.metrics "decode_dropped"
  | Ok pkt ->
    Metrics.incr t.metrics "ip_rx";
    (* A home agent's forward hook may also want packets addressed to
       local subnets; plain nodes just deliver or forward. *)
    if is_local t pkt.Packet.dst then deliver t pkt ~in_if:if_id
    else if t.forwarding then forward t pkt ~in_if:if_id
    else Metrics.incr t.metrics "not_for_us"

let add_iface t chan ~addr ~prefix =
  let if_id = t.next_if in
  t.next_if <- t.next_if + 1;
  let iface = { if_id; chan; if_addr = addr; if_prefix = prefix } in
  Hashtbl.replace t.ifaces if_id iface;
  chan.Chan.set_receiver (fun frame -> on_frame t if_id frame);
  chan.Chan.on_carrier (fun up -> List.iter (fun f -> f if_id up) t.iface_watchers);
  add_static_route t prefix ~if_id ();
  if_id

let set_iface_addr t if_id ~addr ~prefix =
  match Hashtbl.find_opt t.ifaces if_id with
  | None -> invalid_arg "Node.set_iface_addr: unknown interface"
  | Some iface ->
    ignore (remove_route t iface.if_prefix);
    iface.if_addr <- addr;
    iface.if_prefix <- prefix;
    add_static_route t prefix ~if_id ()

let inject t pkt ~in_if = deliver t pkt ~in_if

let metrics t = t.metrics
