(* Tests for the TCP/IP baseline stack. *)

module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Ip = Tcpip.Ip
module Lpm = Tcpip.Lpm
module Packet = Tcpip.Packet
module Node = Tcpip.Node
module Dv = Tcpip.Dv
module Tcp = Tcpip.Tcp
module Udp = Tcpip.Udp
module Dns = Tcpip.Dns
module Nat = Tcpip.Nat
module Mobile_ip = Tcpip.Mobile_ip
module Prng = Rina_util.Prng
module Metrics = Rina_util.Metrics
module Flight = Rina_util.Flight
module Trace = Rina_sim.Trace

let check = Alcotest.check

let wait engine d = Engine.run ~until:(Engine.now engine +. d) engine

(* ---------- Ip ---------- *)

let test_ip_parse_format () =
  let a = Ip.addr_of_string "192.168.1.200" in
  check Alcotest.string "roundtrip" "192.168.1.200" (Ip.string_of_addr a);
  check Alcotest.int "octets" a (Ip.addr_of_octets 192 168 1 200);
  Alcotest.check_raises "garbage" (Invalid_argument "Ip.addr_of_string: not.an.ip")
    (fun () -> ignore (Ip.addr_of_string "not.an.ip"));
  Alcotest.check_raises "octet range"
    (Invalid_argument "Ip.addr_of_octets: octet out of range") (fun () ->
      ignore (Ip.addr_of_octets 300 0 0 1))

let test_ip_prefix () =
  let p = Ip.prefix_of_string "10.20.0.0/16" in
  Alcotest.(check bool) "inside" true (Ip.matches p (Ip.addr_of_string "10.20.99.1"));
  Alcotest.(check bool) "outside" false (Ip.matches p (Ip.addr_of_string "10.21.0.1"));
  (* Host bits are masked off. *)
  let q = Ip.prefix (Ip.addr_of_string "10.20.30.40") 16 in
  check Alcotest.int "masked" p.Ip.network q.Ip.network;
  let any = Ip.prefix 0 0 in
  Alcotest.(check bool) "default matches all" true
    (Ip.matches any (Ip.addr_of_string "1.2.3.4"))

(* ---------- Lpm ---------- *)

let test_lpm_longest_match () =
  let t = Lpm.create () in
  Lpm.insert t (Ip.prefix_of_string "10.0.0.0/8") "big";
  Lpm.insert t (Ip.prefix_of_string "10.1.0.0/16") "mid";
  Lpm.insert t (Ip.prefix_of_string "10.1.2.0/24") "small";
  check Alcotest.(option string) "most specific" (Some "small")
    (Lpm.lookup t (Ip.addr_of_string "10.1.2.3"));
  check Alcotest.(option string) "mid" (Some "mid")
    (Lpm.lookup t (Ip.addr_of_string "10.1.9.9"));
  check Alcotest.(option string) "big" (Some "big")
    (Lpm.lookup t (Ip.addr_of_string "10.200.0.1"));
  check Alcotest.(option string) "miss" None (Lpm.lookup t (Ip.addr_of_string "11.0.0.1"));
  check Alcotest.int "size" 3 (Lpm.size t);
  Alcotest.(check bool) "remove" true (Lpm.remove t (Ip.prefix_of_string "10.1.0.0/16"));
  check Alcotest.(option string) "falls back after removal" (Some "big")
    (Lpm.lookup t (Ip.addr_of_string "10.1.9.9"))

let test_lpm_default_route () =
  let t = Lpm.create () in
  Lpm.insert t (Ip.prefix 0 0) "default";
  Lpm.insert t (Ip.prefix_of_string "172.16.0.0/12") "private";
  check Alcotest.(option string) "default" (Some "default")
    (Lpm.lookup t (Ip.addr_of_string "8.8.8.8"));
  check Alcotest.(option string) "specific" (Some "private")
    (Lpm.lookup t (Ip.addr_of_string "172.20.1.1"))

let prop_lpm_matches_reference =
  QCheck.Test.make ~name:"lpm agrees with linear scan" ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 30) (pair (int_range 0 0xFFFFFF) (int_range 4 28)))
        (int_range 0 0xFFFFFFF))
    (fun (routes, probe) ->
      let t = Lpm.create () in
      let routes =
        List.mapi (fun i (net, len) -> (Ip.prefix (net * 251) len, i)) routes
      in
      List.iter (fun (p, v) -> Lpm.insert t p v) routes;
      let addr = probe * 17 land 0xFFFFFFFF in
      let reference =
        List.fold_left
          (fun best (p, v) ->
            if Ip.matches p addr then
              match best with
              | Some (bl, _) when bl >= p.Ip.length -> best
              | _ -> Some (p.Ip.length, v)
            else best)
          None routes
      in
      (* Duplicate prefixes: the last insert wins in both models only
         if we dedup; compare only the matched prefix length. *)
      match (Lpm.lookup_prefix t addr, reference) with
      | None, None -> true
      | Some (p, _), Some (bl, _) -> p.Ip.length = bl
      | _ -> false)

(* ---------- Packet ---------- *)

let test_packet_roundtrips () =
  let ip =
    Packet.make ~src:(Ip.addr_of_string "1.2.3.4") ~dst:(Ip.addr_of_string "5.6.7.8")
      ~proto:Packet.P_udp ~ttl:31 (Bytes.of_string "body")
  in
  (match Packet.decode (Packet.encode ip) with
   | Ok p -> Alcotest.(check bool) "ip roundtrip" true (p = ip)
   | Error e -> Alcotest.fail e);
  let udp = { Packet.Udp.sport = 1000; dport = 53; body = Bytes.of_string "q" } in
  (match Packet.Udp.decode (Packet.Udp.encode udp) with
   | Ok d -> Alcotest.(check bool) "udp roundtrip" true (d = udp)
   | Error e -> Alcotest.fail e);
  let seg =
    {
      Packet.Tcp.sport = 80;
      dport = 49152;
      seq = 7;
      ack_seq = 9;
      flags = { Packet.Tcp.syn = true; ack = true; fin = false; rst = false };
      window = 11;
      body = Bytes.of_string "data";
    }
  in
  match Packet.Tcp.decode (Packet.Tcp.encode seg) with
  | Ok s -> Alcotest.(check bool) "tcp roundtrip" true (s = seg)
  | Error e -> Alcotest.fail e

(* ---------- Node forwarding ---------- *)

let two_hosts_and_router () =
  let engine = Engine.create () in
  let rng = Prng.create 21 in
  let h1 = Node.create engine "h1" in
  let r = Node.create engine ~forwarding:true "r" in
  let h2 = Node.create engine "h2" in
  let l1 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 () in
  let l2 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 () in
  let p1 = Ip.prefix_of_string "10.1.0.0/16" and p2 = Ip.prefix_of_string "10.2.0.0/16" in
  ignore (Node.add_iface h1 (Link.endpoint_a l1) ~addr:(Ip.addr_of_string "10.1.0.1") ~prefix:p1);
  ignore (Node.add_iface r (Link.endpoint_b l1) ~addr:(Ip.addr_of_string "10.1.0.2") ~prefix:p1);
  ignore (Node.add_iface r (Link.endpoint_a l2) ~addr:(Ip.addr_of_string "10.2.0.1") ~prefix:p2);
  ignore (Node.add_iface h2 (Link.endpoint_b l2) ~addr:(Ip.addr_of_string "10.2.0.2") ~prefix:p2);
  ignore (Node.add_static_route h1 (Ip.prefix 0 0) ~if_id:1 ());
  ignore (Node.add_static_route h2 (Ip.prefix 0 0) ~if_id:1 ());
  (engine, h1, r, h2, l1, l2)

let test_node_forwarding_and_ttl () =
  let engine, h1, r, h2, _, _ = two_hosts_and_router () in
  let u2 = Udp.attach h2 in
  let got = ref 0 in
  Udp.listen u2 ~port:7 (fun ~src:_ ~sport:_ _ -> incr got);
  let u1 = Udp.attach h1 in
  Udp.send u1 ~src:(Ip.addr_of_string "10.1.0.1") ~dst:(Ip.addr_of_string "10.2.0.2")
    ~sport:7 ~dport:7 (Bytes.of_string "x");
  wait engine 1.;
  check Alcotest.int "delivered across router" 1 !got;
  check Alcotest.int "router forwarded" 1 (Metrics.get (Node.metrics r) "forwarded");
  (* TTL 1 dies at the router. *)
  Node.send_ip h1
    (Packet.make ~src:(Ip.addr_of_string "10.1.0.1") ~dst:(Ip.addr_of_string "10.2.0.2")
       ~proto:Packet.P_udp ~ttl:1
       (Packet.Udp.encode { Packet.Udp.sport = 7; dport = 7; body = Bytes.empty }));
  wait engine 1.;
  check Alcotest.int "ttl expired" 1 (Metrics.get (Node.metrics r) "ttl_expired");
  check Alcotest.int "not delivered" 1 !got

let test_node_renumber () =
  let engine = Engine.create () in
  ignore engine;
  let n = Node.create engine "n" in
  let chan = Rina_sim.Chan.null () in
  let ifid =
    Node.add_iface n chan ~addr:(Ip.addr_of_string "10.1.0.5")
      ~prefix:(Ip.prefix_of_string "10.1.0.0/16")
  in
  Alcotest.(check bool) "old local" true (Node.is_local n (Ip.addr_of_string "10.1.0.5"));
  Node.set_iface_addr n ifid ~addr:(Ip.addr_of_string "10.9.0.5")
    ~prefix:(Ip.prefix_of_string "10.9.0.0/16");
  Alcotest.(check bool) "old gone" false (Node.is_local n (Ip.addr_of_string "10.1.0.5"));
  Alcotest.(check bool) "new local" true (Node.is_local n (Ip.addr_of_string "10.9.0.5"));
  check Alcotest.int "one connected route" 1 (Node.table_size n)

(* ---------- Dv ---------- *)

let test_dv_convergence_and_expiry () =
  let net = Rina_exp.Topo.ip_line ~routers:3 ~dv_period:1.0 () in
  let engine = net.Rina_exp.Topo.ip_engine in
  Array.iter
    (fun r ->
      (* 4 links in the topology: every router must know all 4 prefixes. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s table complete" (Node.node_name r))
        true
        (Node.table_size r >= 4))
    net.Rina_exp.Topo.routers;
  (* Silently kill the first link (hostA's access): the far router's
     learned route to subnet 1 must expire after 3.5 periods. *)
  let far = net.Rina_exp.Topo.routers.(2) in
  let has_route_to_s1 () =
    List.exists
      (fun ((p : Ip.prefix), _) -> p = Ip.prefix_of_string "10.1.0.0/16")
      (Node.routes far)
  in
  Alcotest.(check bool) "far router knows subnet 1" true (has_route_to_s1 ());
  Link.set_blackhole net.Rina_exp.Topo.ip_links.(0) true;
  (* Not just the link: the advertising router still advertises the
     connected prefix, so also isolate it. *)
  Link.set_blackhole net.Rina_exp.Topo.ip_links.(1) true;
  wait engine 10.;
  Alcotest.(check bool) "stale route expired" false (has_route_to_s1 ())

let test_dv_carrier_triggers_update () =
  let net = Rina_exp.Topo.ip_line ~routers:2 ~dv_period:2.0 () in
  let engine = net.Rina_exp.Topo.ip_engine in
  let r0 = net.Rina_exp.Topo.routers.(0) in
  let before = Node.table_size r0 in
  Alcotest.(check bool) "has routes" true (before >= 3);
  (* Down the inter-router link: learned routes via it are withdrawn
     immediately. *)
  Link.set_up net.Rina_exp.Topo.ip_links.(1) false;
  wait engine 0.5;
  Alcotest.(check bool) "withdrawn on carrier loss" true (Node.table_size r0 < before)

(* ---------- Tcp ---------- *)

let tcp_pair ?(loss = Rina_sim.Loss.No_loss) ?(engine = Engine.create ()) () =
  let rng = Prng.create 23 in
  let h1 = Node.create engine "h1" in
  let h2 = Node.create engine "h2" in
  let l = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002 ~loss () in
  let p = Ip.prefix_of_string "10.1.0.0/16" in
  ignore (Node.add_iface h1 (Link.endpoint_a l) ~addr:(Ip.addr_of_string "10.1.0.1") ~prefix:p);
  ignore (Node.add_iface h2 (Link.endpoint_b l) ~addr:(Ip.addr_of_string "10.1.0.2") ~prefix:p);
  (engine, h1, h2, l)

let tcp_connect_transfer_close engine =
  let _, h1, h2, _ = tcp_pair ~engine () in
  let t1 = Tcp.attach h1 and t2 = Tcp.attach h2 in
  let received = ref [] and closed = ref false in
  Tcp.listen t2 ~port:80 ~on_accept:(fun conn ->
      Tcp.set_on_receive conn (fun b -> received := Bytes.to_string b :: !received);
      Tcp.set_on_close conn (fun () -> closed := true));
  let client = ref None in
  Tcp.connect t1 ~src:(Ip.addr_of_string "10.1.0.1") ~dst:(Ip.addr_of_string "10.1.0.2")
    ~dport:80
    ~on_result:(function Ok c -> client := Some c | Error e -> Alcotest.fail e);
  wait engine 1.;
  (match !client with
   | Some c ->
     Alcotest.(check bool) "established" true (Tcp.state c = Tcp.Established);
     Tcp.send c (Bytes.of_string "GET /");
     Tcp.send c (Bytes.of_string "again");
     wait engine 1.;
     check Alcotest.(list string) "data in order" [ "GET /"; "again" ]
       (List.rev !received);
     Tcp.close c;
     wait engine 5.;
     Alcotest.(check bool) "peer saw close" true !closed
   | None -> Alcotest.fail "no connection")

let test_tcp_connect_transfer_close () = tcp_connect_transfer_close (Engine.create ())

let test_tcp_refused_on_closed_port () =
  let engine, h1, h2, _ = tcp_pair () in
  let t1 = Tcp.attach h1 and _t2 = Tcp.attach h2 in
  let result = ref None in
  Tcp.connect t1 ~src:(Ip.addr_of_string "10.1.0.1") ~dst:(Ip.addr_of_string "10.1.0.2")
    ~dport:81
    ~on_result:(fun r -> result := Some r);
  wait engine 2.;
  match !result with
  | Some (Error e) -> check Alcotest.string "refused" "connection refused" e
  | Some (Ok _) -> Alcotest.fail "connected to closed port"
  | None -> Alcotest.fail "no answer"

let test_tcp_retransmission_under_loss () =
  let engine, h1, h2, _ = tcp_pair ~loss:(Rina_sim.Loss.Bernoulli 0.1) () in
  let t1 = Tcp.attach h1 and t2 = Tcp.attach h2 in
  let received = ref 0 in
  Tcp.listen t2 ~port:80 ~on_accept:(fun conn ->
      Tcp.set_on_receive conn (fun _ -> incr received));
  Tcp.connect t1 ~src:(Ip.addr_of_string "10.1.0.1") ~dst:(Ip.addr_of_string "10.1.0.2")
    ~dport:80
    ~on_result:(function
      | Ok c ->
        for i = 1 to 50 do
          ignore i;
          Tcp.send c (Bytes.make 400 'd')
        done
      | Error e -> Alcotest.fail e);
  wait engine 60.;
  check Alcotest.int "all segments delivered despite loss" 50 !received

let test_tcp_breaks_when_path_dies () =
  let engine, h1, h2, l = tcp_pair () in
  let t1 = Tcp.attach h1 and t2 = Tcp.attach h2 in
  Tcp.listen t2 ~port:80 ~on_accept:(fun _ -> ());
  let error = ref None in
  Tcp.connect t1 ~src:(Ip.addr_of_string "10.1.0.1") ~dst:(Ip.addr_of_string "10.1.0.2")
    ~dport:80
    ~on_result:(function
      | Ok c ->
        Tcp.set_on_error c (fun e -> error := Some e);
        ignore
          (Engine.schedule engine ~delay:0.5 (fun () ->
               Link.set_up l false;
               Tcp.send c (Bytes.of_string "into the void")))
      | Error e -> Alcotest.fail e);
  wait engine 60.;
  match !error with
  | Some e -> check Alcotest.string "aborted" "max retransmissions exceeded" e
  | None -> Alcotest.fail "connection survived a dead path?"

(* ---------- Udp / Dns ---------- *)

let test_tcp_concurrent_connections () =
  (* One listener, two simultaneous clients from the same host:
     connections are demultiplexed by the full 4-tuple. *)
  let engine, h1, h2, _ = tcp_pair () in
  let t1 = Tcp.attach h1 and t2 = Tcp.attach h2 in
  let per_conn : (int, int ref) Hashtbl.t = Hashtbl.create 4 in
  Tcp.listen t2 ~port:80 ~on_accept:(fun conn ->
      let _, rport = Tcp.remote_endpoint conn in
      let counter = ref 0 in
      Hashtbl.replace per_conn rport counter;
      Tcp.set_on_receive conn (fun _ -> incr counter));
  let send_on = ref [] in
  for _ = 1 to 2 do
    Tcp.connect t1 ~src:(Ip.addr_of_string "10.1.0.1")
      ~dst:(Ip.addr_of_string "10.1.0.2") ~dport:80
      ~on_result:(function
        | Ok c -> send_on := c :: !send_on
        | Error e -> Alcotest.fail e)
  done;
  wait engine 1.;
  check Alcotest.int "two established" 2 (List.length !send_on);
  List.iteri
    (fun i c ->
      for _ = 0 to i do
        Tcp.send c (Bytes.of_string "x")
      done)
    !send_on;
  wait engine 2.;
  let counts =
    Hashtbl.fold (fun _ r acc -> !r :: acc) per_conn [] |> List.sort compare
  in
  check Alcotest.(list int) "segments demuxed per connection" [ 1; 2 ] counts

let test_udp_port_unreachable () =
  let engine, h1, h2, _ = tcp_pair () in
  let u1 = Udp.attach h1 and u2 = Udp.attach h2 in
  Udp.send u1 ~src:(Ip.addr_of_string "10.1.0.1") ~dst:(Ip.addr_of_string "10.1.0.2")
    ~sport:5 ~dport:9999 (Bytes.of_string "anyone there?");
  wait engine 1.;
  check Alcotest.int "port unreachable" 1 (Metrics.get (Udp.metrics u2) "port_unreachable");
  check Alcotest.(list int) "no open ports" [] (Udp.open_ports u2)

let dns_resolve_and_miss engine =
  let _, h1, h2, _ = tcp_pair ~engine () in
  let u1 = Udp.attach h1 and u2 = Udp.attach h2 in
  let server_addr = Ip.addr_of_string "10.1.0.2" in
  let srv = Dns.server u2 ~local:server_addr in
  Dns.register srv "www.example" (Ip.addr_of_string "10.1.0.99");
  let results = ref [] in
  Dns.resolve u1 engine ~local:(Ip.addr_of_string "10.1.0.1") ~server:server_addr
    "www.example" ~on_result:(fun r -> results := ("hit", r) :: !results);
  Dns.resolve u1 engine ~local:(Ip.addr_of_string "10.1.0.1") ~server:server_addr
    "no.such.name" ~on_result:(fun r -> results := ("miss", r) :: !results);
  wait engine 6.;
  check Alcotest.int "both answered" 2 (List.length !results);
  List.iter
    (fun (tag, r) ->
      match (tag, r) with
      | "hit", Ok a -> check Alcotest.string "addr" "10.1.0.99" (Ip.string_of_addr a)
      | "miss", Error _ -> ()
      | "hit", Error e -> Alcotest.fail ("hit failed: " ^ e)
      | _, Ok _ -> Alcotest.fail "miss resolved"
      | _ -> Alcotest.fail "unexpected")
    !results;
  check Alcotest.int "served" 2 (Dns.queries_served srv)

let test_dns_resolve_and_miss () = dns_resolve_and_miss (Engine.create ())

(* ---------- Nat ---------- *)

let test_nat_translation () =
  (* h1 (inside 10.1/16) -- r(NAT) -- h2 (outside 10.2/16); public
     address 10.3.0.1 routed via r. *)
  let engine, h1, r, h2, _, _ = two_hosts_and_router () in
  let public = Ip.addr_of_string "10.3.0.1" in
  let nat = Nat.install r ~inside:(Ip.prefix_of_string "10.1.0.0/16") ~public in
  (* h2 must route the public address back towards r. *)
  ignore
    (Node.add_static_route h2 (Ip.prefix public 32) ~if_id:1 ());
  let u1 = Udp.attach h1 and u2 = Udp.attach h2 in
  let seen_src = ref None in
  let echoed = ref 0 in
  Udp.listen u2 ~port:70 (fun ~src ~sport body ->
      seen_src := Some (src, sport);
      Udp.send u2 ~src:(Ip.addr_of_string "10.2.0.2") ~dst:src ~sport:70 ~dport:sport body);
  Udp.listen u1 ~port:555 (fun ~src:_ ~sport:_ _ -> incr echoed);
  Udp.send u1 ~src:(Ip.addr_of_string "10.1.0.1") ~dst:(Ip.addr_of_string "10.2.0.2")
    ~sport:555 ~dport:70 (Bytes.of_string "through the nat");
  wait engine 2.;
  (match !seen_src with
   | Some (src, sport) ->
     check Alcotest.string "source rewritten to public" "10.3.0.1" (Ip.string_of_addr src);
     Alcotest.(check bool) "port rewritten" true (sport <> 555)
   | None -> Alcotest.fail "nothing crossed the NAT");
  check Alcotest.int "reply translated back" 1 !echoed;
  check Alcotest.int "one mapping" 1 (Nat.translations nat);
  (* Unsolicited inbound to the public address is dropped. *)
  Udp.send u2 ~src:(Ip.addr_of_string "10.2.0.2") ~dst:public ~sport:1 ~dport:44444
    (Bytes.of_string "cold call");
  wait engine 1.;
  check Alcotest.int "unsolicited dropped" 1 (Nat.dropped_unsolicited nat)

(* ---------- Mobile IP ---------- *)

let mobile_ip_tunnel engine =
  let rng = Prng.create 29 in
  (* corr -- r0 -- rh(HA) -- m(home); r0 -- rf -- m(foreign, initially down) *)
  let corr = Node.create engine "corr" in
  let r0 = Node.create engine ~forwarding:true "r0" in
  let rh = Node.create engine ~forwarding:true "rh" in
  let rf = Node.create engine ~forwarding:true "rf" in
  let m = Node.create engine "m" in
  let wire ?(up = true) no a b =
    let l = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 () in
    if not up then Link.set_up l false;
    let subnet = Ip.addr_of_octets 10 no 0 0 in
    let prefix = Ip.prefix subnet 16 in
    ignore (Node.add_iface a (Link.endpoint_a l) ~addr:(subnet lor 1) ~prefix);
    ignore (Node.add_iface b (Link.endpoint_b l) ~addr:(subnet lor 2) ~prefix);
    (l, subnet)
  in
  let _ = wire 1 corr r0 in
  let _ = wire 2 r0 rh in
  let l_home, s_home = wire 3 rh m in
  let _ = wire 4 r0 rf in
  let l_foreign, s_foreign = wire ~up:false 5 rf m in
  ignore (Node.add_static_route corr (Ip.prefix 0 0) ~if_id:1 ());
  ignore (Node.add_static_route m (Ip.prefix 0 0) ~if_id:1 ());
  List.iter (fun r -> ignore (Dv.start r ~period:1.0 ())) [ r0; rh; rf ];
  wait engine 8.;
  let home_addr = s_home lor 2 in
  let care_of = s_foreign lor 2 in
  let u_corr = Udp.attach corr and u_m = Udp.attach m and u_rh = Udp.attach rh in
  let agent = Mobile_ip.home_agent rh u_rh ~local:(Ip.addr_of_octets 10 2 0 2) in
  let mob = Mobile_ip.mobile m u_m ~home_addr in
  let got = ref 0 in
  Udp.listen u_m ~port:6000 (fun ~src:_ ~sport:_ _ -> incr got);
  let ping () =
    Udp.send u_corr ~src:(Ip.addr_of_octets 10 1 0 1) ~dst:home_addr ~sport:6000
      ~dport:6000 (Bytes.of_string "hi")
  in
  ping ();
  wait engine 1.;
  check Alcotest.int "reachable at home" 1 !got;
  (* Move. *)
  Link.set_up l_home false;
  Link.set_up l_foreign true;
  ignore (Node.add_static_route m (Ip.prefix 0 0) ~if_id:2 ());
  let acked = ref false in
  Mobile_ip.register_care_of mob ~home_agent_addr:(Ip.addr_of_octets 10 2 0 2) ~care_of
    ~on_ack:(fun () -> acked := true);
  wait engine 3.;
  Alcotest.(check bool) "registration acked" true !acked;
  check Alcotest.(list (pair int int)) "binding installed" [ (home_addr, care_of) ]
    (Mobile_ip.bindings agent);
  ping ();
  wait engine 2.;
  check Alcotest.int "reachable via tunnel" 2 !got;
  Alcotest.(check bool) "packets were tunnelled" true (Mobile_ip.tunnelled agent >= 1);
  (* Deregister: the home agent stops tunnelling. *)
  Mobile_ip.deregister mob ~home_agent_addr:(Ip.addr_of_octets 10 2 0 2) ~care_of;
  wait engine 3.;
  check Alcotest.(list (pair int int)) "binding removed" [] (Mobile_ip.bindings agent);
  ping ();
  wait engine 2.;
  check Alcotest.int "unreachable after deregistration" 2 !got

let test_mobile_ip_tunnel () = mobile_ip_tunnel (Engine.create ())

(* ---------- Flight recorder ---------- *)

(* The events a scenario emits with a trace attached to its engine
   from the start. *)
let traced scenario =
  let engine = Engine.create () in
  let tr = Trace.create engine in
  Trace.attach tr;
  scenario engine;
  Trace.close tr;
  Trace.typed_events tr

(* Event counts per (component prefix, kind): "ip:h1" and "ip:h2"
   count as "ip". *)
let census events =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (e : Flight.event) ->
      let prefix = String.split_on_char ':' e.component |> List.hd in
      let prefix = String.split_on_char '.' prefix |> List.hd in
      let key = prefix ^ " " ^ Flight.kind_to_string e.kind in
      Hashtbl.replace counts key
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    events;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])

(* Every emitter of the baseline stack, counted exactly.  The
   experiment traces compared byte for byte (r1-r4, f5) hold no ip:,
   tcp:, udp:, ha: or mn: event, so these counts are what pins them. *)
let test_trace_emitters_pinned () =
  let pinned name scenario expected =
    check Alcotest.(list (pair string int)) name expected (census (traced scenario))
  in
  pinned "tcp transfer" tcp_connect_transfer_close
    [
      ("engine timer_fired", 24); ("engine timer_set", 30); ("ip pdu_recvd", 11);
      ("ip pdu_sent", 11); ("link pdu_recvd", 11); ("link pdu_sent", 11);
      ("tcp pdu_recvd", 2); ("tcp pdu_sent", 11); ("tcp timer_set", 6);
    ];
  pinned "dns" dns_resolve_and_miss
    [
      ("engine timer_fired", 10); ("engine timer_set", 10); ("ip pdu_recvd", 4);
      ("ip pdu_sent", 4); ("link pdu_recvd", 4); ("link pdu_sent", 4);
      ("udp pdu_recvd", 4);
    ];
  pinned "mobile ip" mobile_ip_tunnel
    [
      ("engine timer_fired", 359); ("engine timer_set", 362); ("ha handoff", 1);
      ("ha tunnel", 1); ("ip pdu_recvd", 135); ("ip pdu_sent", 172);
      ("link pdu_dropped:link_down", 22); ("link pdu_recvd", 150);
      ("link pdu_sent", 150); ("mn detunnel", 1); ("mn handoff", 2);
      ("udp pdu_recvd", 6);
    ]

(* Resolver ports and registration ports belong to the run: a second
   run in the same process traces the same flows. *)
let test_trace_reruns_equal () =
  List.iter
    (fun (name, scenario) ->
      let first = traced scenario in
      check Alcotest.bool (name ^ ": rerun traces the same events") true
        (traced scenario = first))
    [ ("mobile ip", mobile_ip_tunnel); ("dns", dns_resolve_and_miss) ]

let () =
  Alcotest.run "tcpip"
    [
      ( "ip",
        [
          Alcotest.test_case "parse/format" `Quick test_ip_parse_format;
          Alcotest.test_case "prefix" `Quick test_ip_prefix;
        ] );
      ( "lpm",
        [
          Alcotest.test_case "longest match" `Quick test_lpm_longest_match;
          Alcotest.test_case "default route" `Quick test_lpm_default_route;
          QCheck_alcotest.to_alcotest prop_lpm_matches_reference;
        ] );
      ("packet", [ Alcotest.test_case "roundtrips" `Quick test_packet_roundtrips ]);
      ( "node",
        [
          Alcotest.test_case "forwarding and ttl" `Quick test_node_forwarding_and_ttl;
          Alcotest.test_case "renumber" `Quick test_node_renumber;
        ] );
      ( "dv",
        [
          Alcotest.test_case "convergence" `Quick test_dv_convergence_and_expiry;
          Alcotest.test_case "carrier triggered" `Quick test_dv_carrier_triggers_update;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "connect/transfer/close" `Quick test_tcp_connect_transfer_close;
          Alcotest.test_case "refused" `Quick test_tcp_refused_on_closed_port;
          Alcotest.test_case "retransmission" `Quick test_tcp_retransmission_under_loss;
          Alcotest.test_case "path death" `Quick test_tcp_breaks_when_path_dies;
          Alcotest.test_case "concurrent connections" `Quick test_tcp_concurrent_connections;
        ] );
      ( "udp+dns",
        [
          Alcotest.test_case "port unreachable" `Quick test_udp_port_unreachable;
          Alcotest.test_case "dns" `Quick test_dns_resolve_and_miss;
        ] );
      ("nat", [ Alcotest.test_case "translation" `Quick test_nat_translation ]);
      ("mobile-ip", [ Alcotest.test_case "tunnel" `Quick test_mobile_ip_tunnel ]);
      ( "trace",
        [
          Alcotest.test_case "emitters pinned" `Quick test_trace_emitters_pinned;
          Alcotest.test_case "reruns trace equal" `Quick test_trace_reruns_equal;
        ] );
    ]
