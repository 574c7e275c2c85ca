module W = Rina_util.Codec.Writer
module R = Rina_util.Codec.Reader
module Metrics = Rina_util.Metrics
module Flight = Rina_util.Flight

let registration_port = 434

type home_agent = {
  ha_node : Node.t;
  ha_udp : Udp.t;
  ha_local : Ip.addr;
  ha_bindings : (Ip.addr, Ip.addr) Hashtbl.t;  (* home addr -> care-of *)
  ha_metrics : Metrics.t;
}

(* Registration: 'R' home care_of register?; ack: 'A' home care_of. *)
let encode_reg ~home ~care_of ~registering =
  let w = W.create () in
  W.u8 w (Char.code 'R');
  W.u32 w home;
  W.u32 w care_of;
  W.bool w registering;
  W.contents w

let encode_ack ~home ~care_of =
  let w = W.create () in
  W.u8 w (Char.code 'A');
  W.u32 w home;
  W.u32 w care_of;
  W.contents w

let home_agent node udp ~local =
  let flight = Rina_sim.Engine.flight (Node.engine node) in
  let t =
    {
      ha_node = node;
      ha_udp = udp;
      ha_local = local;
      ha_bindings = Hashtbl.create 8;
      ha_metrics = Metrics.create ();
    }
  in
  Udp.listen udp ~port:registration_port (fun ~src ~sport body ->
      try
        let r = R.create body in
        if R.u8 r = Char.code 'R' then begin
          let home = R.u32 r in
          let care_of = R.u32 r in
          let registering = R.bool r in
          if registering then begin
            Hashtbl.replace t.ha_bindings home care_of;
            (* A (re)registration is the mobility handoff as the home
               agent sees it: the binding for [home] moves to a new
               care-of address. *)
            if Flight.on flight then
              Flight.emit_to flight
                ~component:("ha:" ^ Node.node_name node)
                ~flow:home ~size:care_of Flight.Handoff;
            Metrics.incr t.ha_metrics "registrations"
          end
          else begin
            Hashtbl.remove t.ha_bindings home;
            Metrics.incr t.ha_metrics "deregistrations"
          end;
          Udp.send udp ~src:local ~dst:src ~sport:registration_port ~dport:sport
            (encode_ack ~home ~care_of)
        end
      with R.Decode_error _ -> ());
  (* Intercept forwarded packets for bound home addresses and tunnel
     them to the care-of address. *)
  Node.set_forward_hook node (fun pkt ~in_if:_ ->
      match Hashtbl.find_opt t.ha_bindings pkt.Packet.dst with
      | Some care_of when pkt.Packet.proto <> Packet.P_tunnel ->
        if Flight.on flight then
          Flight.emit_to flight
            ~component:("ha:" ^ Node.node_name node)
            ~flow:pkt.Packet.dst ~size:(Bytes.length pkt.Packet.payload)
            (Flight.Custom "tunnel");
        Metrics.incr t.ha_metrics "tunnelled";
        Some
          (Packet.make ~src:t.ha_local ~dst:care_of ~proto:Packet.P_tunnel
             (Packet.encode pkt))
      | Some _ | None -> Some pkt);
  t

let bindings t =
  Hashtbl.fold (fun home care acc -> (home, care) :: acc) t.ha_bindings []
  |> List.sort compare

let tunnelled t = Metrics.get t.ha_metrics "tunnelled"

type mobile = {
  m_node : Node.t;
  m_udp : Udp.t;
  m_home : Ip.addr;
  m_metrics : Metrics.t;
  m_flight : Flight.recorder;
  mutable m_next_sport : int;  (* client port of the next registration *)
}

let mobile node udp ~home_addr =
  let t =
    {
      m_node = node;
      m_udp = udp;
      m_home = home_addr;
      m_metrics = Metrics.create ();
      m_flight = Rina_sim.Engine.flight (Node.engine node);
      m_next_sport = 40000;
    }
  in
  (* Decapsulate tunnelled packets: the inner packet is addressed to
     the home address, which is no longer a local interface address —
     re-inject it through the node's delivery path by handling it
     here and dispatching on the inner protocol. *)
  Node.set_proto_handler node Packet.P_tunnel (fun pkt ~in_if ->
      match Packet.decode pkt.Packet.payload with
      | Error _ -> Metrics.incr t.m_metrics "bad_tunnel"
      | Ok inner ->
        if Flight.on t.m_flight then
          Flight.emit_to t.m_flight
            ~component:("mn:" ^ Node.node_name node)
            ~flow:inner.Packet.dst ~size:(Bytes.length inner.Packet.payload)
            (Flight.Custom "detunnel");
        Metrics.incr t.m_metrics "decapsulated";
        (* Deliver the inner packet as if it had arrived directly. *)
        Node.inject t.m_node inner ~in_if);
  t

let register_msg t ~home_agent_addr ~care_of ~registering ~on_ack =
  let sport = t.m_next_sport in
  t.m_next_sport <- sport + 1;
  let acked = ref false in
  Udp.listen t.m_udp ~port:sport (fun ~src:_ ~sport:_ body ->
      try
        let r = R.create body in
        if R.u8 r = Char.code 'A' && not !acked then begin
          acked := true;
          (* Handoff completes for the mobile node when the home agent
             acknowledges the new care-of binding. *)
          if Flight.on t.m_flight then
            Flight.emit_to t.m_flight
              ~component:("mn:" ^ Node.node_name t.m_node)
              ~flow:t.m_home ~size:care_of Flight.Handoff;
          Udp.unlisten t.m_udp ~port:sport;
          on_ack ()
        end
      with R.Decode_error _ -> ());
  let send () =
    Udp.send t.m_udp ~src:care_of ~dst:home_agent_addr ~sport
      ~dport:registration_port
      (encode_reg ~home:t.m_home ~care_of ~registering)
  in
  (* Registration retransmits with exponential backoff (0.5 s, 1 s,
     2 s, 4 s) — RFC 5944 asks agents not to be beaten at a fixed
     rate while the visited link is degraded. *)
  let rec retry attempt () =
    if not !acked then
      if attempt >= 4 then Udp.unlisten t.m_udp ~port:sport
      else begin
        send ();
        let delay = Rina_util.Backoff.delay_for ~base:0.5 attempt in
        ignore
          (Rina_sim.Engine.schedule (Node.engine t.m_node) ~delay
             (retry (attempt + 1)))
      end
  in
  retry 0 ()

let register_care_of t ~home_agent_addr ~care_of ~on_ack =
  register_msg t ~home_agent_addr ~care_of ~registering:true ~on_ack

let deregister t ~home_agent_addr ~care_of =
  register_msg t ~home_agent_addr ~care_of ~registering:false ~on_ack:(fun () -> ())
