module Metrics = Rina_util.Metrics

type t = {
  node : Node.t;
  listeners : (int, src:Ip.addr -> sport:int -> bytes -> unit) Hashtbl.t;
  metrics : Metrics.t;
  mutable next_query : int;  (* this host's next resolver query id *)
}

let attach node =
  let t =
    { node; listeners = Hashtbl.create 8; metrics = Metrics.create (); next_query = 1 }
  in
  let r = Rina_sim.Engine.flight (Node.engine node) in
  Node.set_proto_handler node Packet.P_udp (fun pkt ~in_if:_ ->
      match Packet.Udp.decode pkt.Packet.payload with
      | Error _ -> Metrics.incr t.metrics "bad_dgram"
      | Ok d -> (
        match Hashtbl.find_opt t.listeners d.Packet.Udp.dport with
        | Some f ->
          Metrics.incr t.metrics "rx";
          (* Datagram handed to an application — the delivery point the
             recovery experiments key on (component "udp:<node>", like
             "efcp" on the RINA side), distinct from ip:<node> which
             also counts routing-protocol chatter. *)
          if Rina_util.Flight.on r then
            Rina_util.Flight.emit_to r
              ~component:("udp:" ^ Node.node_name t.node)
              ~flow:d.Packet.Udp.dport
              ~size:(Bytes.length d.Packet.Udp.body)
              Rina_util.Flight.Pdu_recvd;
          f ~src:pkt.Packet.src ~sport:d.Packet.Udp.sport d.Packet.Udp.body
        | None -> Metrics.incr t.metrics "port_unreachable"));
  t

let listen t ~port f = Hashtbl.replace t.listeners port f

let unlisten t ~port = Hashtbl.remove t.listeners port

let send t ~src ~dst ~sport ~dport body =
  Metrics.incr t.metrics "tx";
  Node.send_ip t.node
    (Packet.make ~src ~dst ~proto:Packet.P_udp
       (Packet.Udp.encode { Packet.Udp.sport; dport; body }))

let next_query_id t =
  let id = t.next_query in
  t.next_query <- id + 1;
  id

let open_ports t =
  Hashtbl.fold (fun port _ acc -> port :: acc) t.listeners [] |> List.sort compare

let metrics t = t.metrics
