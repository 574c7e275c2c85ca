(* C2 — §6.1 security: the attack surface of a private DIF versus the
   public-address Internet model.

   RINA target: a two-member DIF protected by password enrollment.
   The attacker has a physical link to a member (the strongest
   position an outsider can hold) and mounts:
     (a) enrollment with bad credentials,
     (b) member-address spoofing via forged identity hellos,
     (c) injection of well-formed data PDUs at a known address/CEP,
     (d) reconnaissance: counting *any* response evoked from the DIF.

   TCP/IP target: a host on a routed network running one TCP service
   (well-known port) and DNS.  The attacker:
     (a) resolves the victim's name (no authorization needed),
     (b) SYN-scans 64 ports (RSTs are an existence+state oracle),
     (c) delivers a UDP datagram with a forged source address. *)

module Engine = Rina_sim.Engine
module Ipcp = Rina_core.Ipcp
module Dif = Rina_core.Dif
module Link = Rina_sim.Link
module Pdu = Rina_core.Pdu
module Table = Rina_util.Table

let secret = "s3cret-dif-password"

let rina_attacks () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 83 in
  let policy = { Rina_core.Policy.default with Rina_core.Policy.auth = Rina_core.Policy.Auth_password secret } in
  let dif = Dif.create engine ~policy "private-net" in
  let a = Dif.add_member dif ~credentials:secret ~name:"A" () in
  let b = Dif.add_member dif ~credentials:secret ~name:"B" () in
  let l_ab = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002 () in
  Dif.connect dif a b (Link.endpoint_a l_ab, Link.endpoint_b l_ab);
  Dif.run_until_converged dif ();
  (* A legitimate flow between members, so there is a live CEP to
     target. *)
  let received_legit = ref 0 in
  Ipcp.register_app b (Rina_core.Types.apn "vault") ~on_flow:(fun flow ->
      flow.Ipcp.set_on_receive (fun _ -> incr received_legit));
  Ipcp.register_app a (Rina_core.Types.apn "client") ~on_flow:(fun _ -> ());
  let flow_ok = ref false in
  Ipcp.allocate_flow a ~src:(Rina_core.Types.apn "client")
    ~dst:(Rina_core.Types.apn "vault") ~qos_id:1
    ~on_result:(function Ok _ -> flow_ok := true | Error _ -> ());
  Engine.run ~until:(Engine.now engine +. 10.) engine;
  (* The attacker: an IPC process with wrong credentials (it does NOT
     know the DIF secret, so its policy carries its guess), wired
     directly to member B, plus raw access to its end of the link. *)
  let l_att = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002 () in
  let raw_chan = Link.endpoint_a l_att in
  (* Tap the wire: count every non-hello frame the DIF sends toward
     the attacker (periodic identity hellos are inherent to holding a
     wire and counted separately). *)
  let responses = ref 0 and hellos_seen = ref 0 in
  let att_chan =
    {
      raw_chan with
      Rina_sim.Chan.set_receiver =
        (fun f ->
          raw_chan.Rina_sim.Chan.set_receiver (fun frame ->
              (if Pdu.Peek.pdu_type frame = Some Pdu.Hello then incr hellos_seen
               else incr responses);
              f frame));
    }
  in
  let attacker_policy =
    { policy with Rina_core.Policy.auth = Rina_core.Policy.Auth_password "letmein" }
  in
  let attacker =
    Ipcp.create engine ~credentials:"letmein" ~name:(Rina_core.Types.apn "Mallory")
      ~dif:"private-net" ~policy:attacker_policy ()
  in
  ignore (Ipcp.bind_port attacker att_chan);
  ignore (Ipcp.bind_port b (Link.endpoint_b l_att));
  Engine.run ~until:(Engine.now engine +. 10.) engine;
  (* (a) the attacker forges an enrollment request outright (it cannot
     even authenticate the member's hellos without the secret). *)
  let m_connect =
    Rina_core.Riep.make ~opcode:Rina_core.Riep.M_connect ~obj_class:"enrollment"
      ~obj_name:"Mallory/1"
      ~obj_value:(Rina_core.Rib.V_str "letmein")
      ~invoke_id:7 ()
  in
  raw_chan.Rina_sim.Chan.send
    (Pdu.encode_frame
       (Pdu.make ~pdu_type:Pdu.Mgmt ~dst_addr:0 ~src_addr:0
          (Rina_core.Riep.encode m_connect)));
  Engine.run ~until:(Engine.now engine +. 2.) engine;
  let enroll_denied = Rina_util.Metrics.get (Ipcp.metrics b) "enroll_denied" in
  let attacker_enrolled = Ipcp.is_enrolled attacker in
  (* (b) forged hello claiming member A's address. *)
  let forged_hello =
    Pdu.make ~pdu_type:Pdu.Hello ~dst_addr:0 ~src_addr:(Ipcp.address a)
      (Rina_core.Enrollment.encode_hello ~name:"A/1" ~addr:(Ipcp.address a)
         ~token:0xDEAD)
  in
  att_chan.Rina_sim.Chan.send (Pdu.encode_frame forged_hello);
  Engine.run ~until:(Engine.now engine +. 2.) engine;
  let hello_rejected = Rina_util.Metrics.get (Ipcp.metrics b) "hello_rejected" in
  (* (c) inject well-formed data PDUs at B's address, scanning CEPs. *)
  let legit_before = !received_legit in
  let ingress_before = Rina_util.Metrics.get (Ipcp.rmt_metrics b) "ingress_dropped" in
  for cep = 1 to 32 do
    let pdu =
      Pdu.make ~pdu_type:Pdu.Dtp ~dst_addr:(Ipcp.address b)
        ~src_addr:(Ipcp.address a) ~dst_cep:cep ~src_cep:99 ~seq:1
        (Bytes.of_string "malicious payload")
    in
    att_chan.Rina_sim.Chan.send (Pdu.encode_frame pdu)
  done;
  Engine.run ~until:(Engine.now engine +. 2.) engine;
  let injected_delivered = !received_legit - legit_before in
  let ingress_dropped =
    Rina_util.Metrics.get (Ipcp.rmt_metrics b) "ingress_dropped" - ingress_before
  in
  ( !flow_ok,
    enroll_denied,
    attacker_enrolled,
    hello_rejected,
    injected_delivered,
    ingress_dropped,
    !responses )

let ip_attacks () =
  let net = Rina_exp.Topo.ip_line ~seed:83 ~routers:1 () in
  let engine = net.Rina_exp.Topo.ip_engine in
  let victim = net.Rina_exp.Topo.hosts.(1) in
  let attacker = net.Rina_exp.Topo.hosts.(0) in
  let victim_addr =
    match Tcpip.Node.iface_addr victim 1 with Some a -> a | None -> 0
  in
  let attacker_addr =
    match Tcpip.Node.iface_addr attacker 1 with Some a -> a | None -> 0
  in
  (* Victim services: one TCP server on a well-known port + DNS. *)
  let tv = Tcpip.Tcp.attach victim in
  Tcpip.Tcp.listen tv ~port:5001 ~on_accept:(fun _ -> ());
  let uv = Tcpip.Udp.attach victim in
  let dns = Tcpip.Dns.server uv ~local:victim_addr in
  Tcpip.Dns.register dns "vault.example" victim_addr;
  let spoofed_accepted = ref 0 in
  Tcpip.Udp.listen uv ~port:4000 (fun ~src:_ ~sport:_ _ -> incr spoofed_accepted);
  (* Attacker stack. *)
  let ta = Tcpip.Tcp.attach attacker in
  let ua = Tcpip.Udp.attach attacker in
  (* (a) name resolution. *)
  let resolved = ref None in
  Tcpip.Dns.resolve ua engine ~local:attacker_addr ~server:victim_addr
    "vault.example" ~on_result:(fun r -> resolved := Some r);
  Engine.run ~until:(Engine.now engine +. 3.) engine;
  (* (b) SYN scan of 64 ports. *)
  let open_ports = ref 0 and refused = ref 0 in
  for port = 4990 to 5053 do
    Tcpip.Tcp.connect ta ~src:attacker_addr ~dst:victim_addr ~dport:port
      ~on_result:(function
        | Ok _ -> incr open_ports
        | Error e -> if String.equal e "connection refused" then incr refused)
  done;
  Engine.run ~until:(Engine.now engine +. 5.) engine;
  (* (c) spoofed-source datagram. *)
  Tcpip.Udp.send ua ~src:(Tcpip.Ip.addr_of_string "99.99.99.99") ~dst:victim_addr
    ~sport:666 ~dport:4000 (Bytes.of_string "spoofed");
  Engine.run ~until:(Engine.now engine +. 2.) engine;
  let resolved_ok = match !resolved with Some (Ok _) -> true | _ -> false in
  (resolved_ok, !open_ports, !refused, !spoofed_accepted)

let run () =
  let table =
    Table.create ~title:"C2: attack surface (§6.1) — outsider with a wire into the network"
      ~columns:[ "attack"; "RINA private DIF"; "TCP/IP host" ]
  in
  let ( flow_ok,
        enroll_denied,
        attacker_enrolled,
        hello_rejected,
        injected_delivered,
        ingress_dropped,
        responses ) =
    rina_attacks ()
  in
  let resolved_ok, open_ports, refused, spoofed = ip_attacks () in
  Table.add_rowf table
    "join / locate target | enrollment DENIED (%d denial%s, enrolled=%b) | DNS resolves name freely: %b"
    enroll_denied
    (if enroll_denied = 1 then "" else "s")
    attacker_enrolled resolved_ok;
  Table.add_rowf table
    "identity spoofing | forged hello REJECTED (%d) | source spoofing accepted (%d datagram delivered)"
    hello_rejected spoofed;
  Table.add_rowf table
    "payload injection / scan | 0 of 32 injected PDUs delivered (%d, %d dropped at ingress) | port scan: %d open, %d RST oracles from 64 probes"
    injected_delivered ingress_dropped open_ports refused;
  Table.add_rowf table
    "information leaked to attacker | %d PDUs evoked beyond link hellos (legit flow ok=%b) | host existence, open services, all port states"
    responses flow_ok;
  Table.print table
