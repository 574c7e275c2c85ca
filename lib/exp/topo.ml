module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Dif = Rina_core.Dif
module Ipcp = Rina_core.Ipcp

type rina_net = {
  engine : Engine.t;
  rng : Rina_util.Prng.t;
  dif : Dif.t;
  nodes : Ipcp.t array;
  links : Link.t array;
  edges : (int * int) array;
}

let wait engine d = Engine.run ~until:(Engine.now engine +. d) engine

let connect_pair net ?rate a b ~bit_rate ~delay ~loss =
  let link =
    Link.create net.engine net.rng ~bit_rate ~delay ~loss ()
  in
  Dif.connect net.dif ?rate_a:rate ?rate_b:rate net.nodes.(a) net.nodes.(b)
    (Link.endpoint_a link, Link.endpoint_b link);
  link

let make_net ?(seed = 7) ?policy ~n () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create seed in
  let dif = Dif.create engine ?policy "net" in
  let nodes =
    Array.init n (fun i -> Dif.add_member dif ~name:(Printf.sprintf "n%d" i) ())
  in
  { engine; rng; dif; nodes; links = [||]; edges = [||] }

let line ?seed ?policy ?(bit_rate = 10_000_000.) ?(delay = 0.002)
    ?(loss = Rina_sim.Loss.No_loss) ?(rate_limited = false) ~n () =
  if n < 2 then invalid_arg "Topo.line: need at least 2 nodes";
  let net = make_net ?seed ?policy ~n () in
  let rate = if rate_limited then Some bit_rate else None in
  let links =
    Array.init (n - 1) (fun i ->
        connect_pair net ?rate i (i + 1) ~bit_rate ~delay ~loss)
  in
  let net = { net with links; edges = Array.init (n - 1) (fun i -> (i, i + 1)) } in
  Dif.run_until_converged net.dif ();
  net

let star ?seed ?policy ?(bit_rate = 10_000_000.) ?(delay = 0.002)
    ?(loss = Rina_sim.Loss.No_loss) ?(rate_limited = false) ~leaves () =
  if leaves < 1 then invalid_arg "Topo.star: need at least 1 leaf";
  let net = make_net ?seed ?policy ~n:(leaves + 1) () in
  let rate = if rate_limited then Some bit_rate else None in
  let links =
    Array.init leaves (fun i ->
        connect_pair net ?rate 0 (i + 1) ~bit_rate ~delay ~loss)
  in
  let net = { net with links; edges = Array.init leaves (fun i -> (0, i + 1)) } in
  Dif.run_until_converged net.dif ();
  net

let random_graph ?seed ?policy ?(bit_rate = 10_000_000.) ?(delay = 0.002) ~n
    ~degree () =
  if n < 2 then invalid_arg "Topo.random_graph: need at least 2 nodes";
  let net = make_net ?seed ?policy ~n () in
  let edges = ref [] in
  (* Spanning chain guarantees connectivity. *)
  for i = 0 to n - 2 do
    edges := (i, i + 1) :: !edges
  done;
  let have a b = List.mem (a, b) !edges || List.mem (b, a) !edges in
  let target = max (n - 1) (n * degree / 2) in
  let guard = ref 0 in
  while List.length !edges < target && !guard < 20 * n * degree do
    incr guard;
    let a = Rina_util.Prng.int net.rng n and b = Rina_util.Prng.int net.rng n in
    if a <> b && not (have a b) then edges := (a, b) :: !edges
  done;
  let links =
    Array.of_list
      (List.map
         (fun (a, b) ->
           connect_pair net a b ~bit_rate ~delay ~loss:Rina_sim.Loss.No_loss)
         !edges)
  in
  let net = { net with links; edges = Array.of_list !edges } in
  Dif.run_until_converged net.dif ~max_time:(30. +. (2. *. float_of_int n)) ();
  net

let link_dif engine ~policy name link =
  let dif = Dif.create engine ~policy name in
  let a = Dif.add_member dif ~name:(name ^ "-a") () in
  let b = Dif.add_member dif ~name:(name ^ "-b") () in
  let shim chan = Rina_core.Shim.wrap ~dif:name chan in
  Dif.connect dif a b (shim (Link.endpoint_a link), shim (Link.endpoint_b link));
  Dif.run_until_converged dif ();
  (a, b)

(* ---------- TCP/IP topologies ---------- *)

type ip_net = {
  ip_engine : Engine.t;
  ip_rng : Rina_util.Prng.t;
  hosts : Tcpip.Node.t array;
  routers : Tcpip.Node.t array;
  ip_links : Link.t array;
}

let ip_line ?(seed = 7) ?(bit_rate = 10_000_000.) ?(delay = 0.002)
    ?(loss = Rina_sim.Loss.No_loss) ?(dv_period = 5.0) ~routers:k () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create seed in
  let host_a = Tcpip.Node.create engine "hostA" in
  let host_b = Tcpip.Node.create engine "hostB" in
  let routers =
    Array.init k (fun i -> Tcpip.Node.create engine ~forwarding:true
                     (Printf.sprintf "r%d" i))
  in
  (* Chain: hostA - r0 - r1 - ... - r(k-1) - hostB; link i uses subnet
     10.(i+1).0.0/16, .1 on the left end and .2 on the right end. *)
  let nodes = Array.concat [ [| host_a |]; routers; [| host_b |] ] in
  let links =
    Array.init (Array.length nodes - 1) (fun i ->
        let link = Link.create engine rng ~bit_rate ~delay ~loss () in
        let left = nodes.(i) and right = nodes.(i + 1) in
        let subnet = Tcpip.Ip.addr_of_octets 10 (i + 1) 0 0 in
        let prefix = Tcpip.Ip.prefix subnet 16 in
        ignore
          (Tcpip.Node.add_iface left (Link.endpoint_a link)
             ~addr:(subnet lor 1) ~prefix);
        ignore
          (Tcpip.Node.add_iface right (Link.endpoint_b link)
             ~addr:(subnet lor 2) ~prefix);
        link)
  in
  (* Hosts default-route into their access link; routers run DV. *)
  ignore
    (Tcpip.Node.add_static_route host_a (Tcpip.Ip.prefix 0 0) ~if_id:1 ());
  ignore
    (Tcpip.Node.add_static_route host_b (Tcpip.Ip.prefix 0 0) ~if_id:1 ());
  Array.iter (fun r -> ignore (Tcpip.Dv.start r ~period:dv_period ())) routers;
  (* Let DV converge: a handful of periods covers k hops. *)
  Engine.run ~until:(Engine.now engine +. (dv_period *. float_of_int (k + 3))) engine;
  { ip_engine = engine; ip_rng = rng; hosts = [| host_a; host_b |]; routers; ip_links = links }

let ip_star ?(seed = 7) ?(bit_rate = 10_000_000.) ?(delay = 0.002)
    ?(loss = Rina_sim.Loss.No_loss) ~leaves () =
  if leaves < 1 then invalid_arg "Topo.ip_star: need at least 1 leaf";
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create seed in
  let hub = Tcpip.Node.create engine ~forwarding:true "hub" in
  let hosts =
    Array.init leaves (fun i -> Tcpip.Node.create engine (Printf.sprintf "h%d" i))
  in
  (* Leaf link i uses subnet 10.(i+1).0.0/16: host .1, hub .2.  The hub
     is directly connected to every leaf subnet, so its connected
     routes cover the whole star — no DV needed. *)
  let links =
    Array.init leaves (fun i ->
        let link = Link.create engine rng ~bit_rate ~delay ~loss () in
        let subnet = Tcpip.Ip.addr_of_octets 10 (i + 1) 0 0 in
        let prefix = Tcpip.Ip.prefix subnet 16 in
        ignore
          (Tcpip.Node.add_iface hosts.(i) (Link.endpoint_a link)
             ~addr:(subnet lor 1) ~prefix);
        ignore
          (Tcpip.Node.add_iface hub (Link.endpoint_b link) ~addr:(subnet lor 2)
             ~prefix);
        link)
  in
  Array.iter
    (fun h -> ignore (Tcpip.Node.add_static_route h (Tcpip.Ip.prefix 0 0) ~if_id:1 ()))
    hosts;
  { ip_engine = engine; ip_rng = rng; hosts; routers = [| hub |]; ip_links = links }

(* ---------- static-verification bridge ---------- *)

module Verify = Rina_check.Verify
module Types = Rina_core.Types
module Policy = Rina_core.Policy

let member_name net i = Types.apn_to_string (Ipcp.name net.nodes.(i))

let model_of_net ?name ?(intents = []) net =
  let dif_name = match name with Some n -> n | None -> Dif.name net.dif in
  let members =
    Array.to_list
      (Array.map
         (fun ip ->
           {
             Verify.m_name = Types.apn_to_string (Ipcp.name ip);
             m_address = Ipcp.address ip;
             m_apps = List.map Types.apn_to_string (Ipcp.registered_apps ip);
           })
         net.nodes)
  in
  let adjacencies =
    Array.to_list
      (Array.mapi
         (fun i (a, b) ->
           let l = net.links.(i) in
           {
             Verify.adj_a = member_name net a;
             adj_b = member_name net b;
             att =
               Verify.Direct
                 {
                   delay = Link.delay l;
                   bit_rate = Link.bit_rate l;
                   queue_frames = Link.queue_capacity l;
                 };
           })
         net.edges)
  in
  let difs =
    [
      {
        Verify.d_name = dif_name;
        d_policy = Dif.policy net.dif;
        d_members = members;
        d_adjacencies = adjacencies;
      };
    ]
  in
  let intents =
    List.map
      (fun (i, app) ->
        { Verify.it_dif = dif_name; it_src = member_name net i; it_dst_app = app })
      intents
  in
  { Verify.difs; intents }

(* ---------- pure-data scenario registry ----------

   Hand-written models mirroring the shipped examples (same DIF names,
   member names, registrations and link characteristics), so
   [rina_verify] and [rina_lint --topology] can analyse a scenario
   without building and converging a live net.  Kept in sync by eye;
   the CI verify-smoke job runs every entry and must stay error-free. *)

let mk_member ?(addr = 0) ?(apps = []) name =
  { Verify.m_name = name; m_address = addr; m_apps = apps }

let wire a b ~delay ~bit_rate =
  { Verify.adj_a = a; adj_b = b; att = Verify.Direct { delay; bit_rate; queue_frames = 64 } }

let over lower via_a via_b a b =
  { Verify.adj_a = a; adj_b = b; att = Verify.Stacked { lower_dif = lower; via_a; via_b } }

let quickstart_model () =
  {
    Verify.difs =
      [
        {
          d_name = "quicknet";
          d_policy = Policy.default;
          d_members =
            [
              mk_member ~addr:1 ~apps:[ "client/1" ] "host-a";
              mk_member ~addr:2 ~apps:[ "echo-server/1" ] "host-b";
            ];
          d_adjacencies = [ wire "host-a" "host-b" ~delay:0.005 ~bit_rate:10_000_000. ];
        };
      ];
    intents = [ { it_dif = "quicknet"; it_src = "host-a"; it_dst_app = "echo-server/1" } ];
  }

let mail_relay_model () =
  {
    Verify.difs =
      [
        {
          d_name = "mailnet";
          d_policy = Policy.default;
          d_members =
            [
              mk_member ~addr:1 ~apps:[ "mua-alice/1" ] "alice-host";
              mk_member ~addr:2 ~apps:[ "mta-relay/1" ] "relay-host";
              mk_member ~addr:3 ~apps:[ "mta-bob/1" ] "bob-host";
            ];
          d_adjacencies =
            [
              wire "alice-host" "relay-host" ~delay:0.004 ~bit_rate:10_000_000.;
              wire "relay-host" "bob-host" ~delay:0.004 ~bit_rate:10_000_000.;
            ];
        };
      ];
    intents =
      [
        { it_dif = "mailnet"; it_src = "alice-host"; it_dst_app = "mta-relay/1" };
        { it_dif = "mailnet"; it_src = "relay-host"; it_dst_app = "mta-bob/1" };
      ];
  }

let marketplace_model () =
  let premium_policy =
    {
      Policy.default with
      Policy.scheduler = Policy.Priority_queueing;
      Policy.auth = Policy.Auth_password "gold-card";
      Policy.acl =
        Policy.Allow_pairs
          [ ("paying-customer", "video-service"); ("bg-src", "bg-sink") ];
    }
  in
  let provider name policy east_apps west_apps =
    {
      Verify.d_name = name;
      d_policy = policy;
      d_members =
        [
          mk_member ~addr:1 ~apps:west_apps (name ^ "-west");
          mk_member ~addr:2 ~apps:east_apps (name ^ "-east");
        ];
      d_adjacencies =
        [ wire (name ^ "-west") (name ^ "-east") ~delay:0.01 ~bit_rate:10_000_000. ];
    }
  in
  {
    Verify.difs =
      [
        provider "budget-net" Policy.default
          [ "video-service/1"; "bg-sink/1" ]
          [ "bg-src/1"; "free-rider/1" ];
        provider "premium-net" premium_policy
          [ "video-service/1"; "bg-sink/1" ]
          [ "bg-src/1"; "paying-customer/1" ];
      ];
    intents =
      [
        { it_dif = "budget-net"; it_src = "budget-net-west"; it_dst_app = "video-service/1" };
        { it_dif = "premium-net"; it_src = "premium-net-west"; it_dst_app = "video-service/1" };
      ];
  }

let mobile_video_model () =
  let wired a b = wire a b ~delay:0.002 ~bit_rate:100_000_000. in
  {
    Verify.difs =
      [
        {
          d_name = "metro";
          d_policy = Policy.default;
          d_members =
            [
              mk_member ~addr:1 ~apps:[ "video/1" ] "video-server";
              mk_member ~addr:2 "hub";
              mk_member ~addr:3 "bs1";
              mk_member ~addr:4 "bs2";
              mk_member ~addr:5 "bs3";
              mk_member ~addr:6 ~apps:[ "player/1" ] "mobile";
            ];
          d_adjacencies =
            [
              wired "video-server" "hub";
              wired "hub" "bs1";
              wired "hub" "bs2";
              wired "hub" "bs3";
              (* the radio attachment the mobile starts on *)
              wire "bs1" "mobile" ~delay:0.001 ~bit_rate:20_000_000.;
            ];
        };
      ];
    intents = [ { it_dif = "metro"; it_src = "mobile"; it_dst_app = "video/1" } ];
  }

let recursive_internet_model () =
  let link_dif name =
    {
      Verify.d_name = name;
      d_policy = Policy.default;
      d_members = [ mk_member ~addr:1 (name ^ ".a"); mk_member ~addr:2 (name ^ ".b") ];
      d_adjacencies =
        [ wire (name ^ ".a") (name ^ ".b") ~delay:0.002 ~bit_rate:50_000_000. ];
    }
  in
  {
    Verify.difs =
      [
        link_dif "wire1";
        link_dif "wire2";
        link_dif "wire3";
        link_dif "wire4";
        link_dif "wire5";
        {
          d_name = "access-isp";
          d_policy = Policy.default;
          d_members =
            [
              mk_member ~addr:1 "acc.host1";
              mk_member ~addr:2 "acc.r1";
              mk_member ~addr:3 "acc.r2";
            ];
          d_adjacencies =
            [
              over "wire1" "wire1.a" "wire1.b" "acc.host1" "acc.r1";
              over "wire2" "wire2.a" "wire2.b" "acc.r1" "acc.r2";
            ];
        };
        {
          d_name = "transit-isp";
          d_policy = Policy.default;
          d_members =
            [
              mk_member ~addr:1 "tr.r2";
              mk_member ~addr:2 "tr.r3";
              mk_member ~addr:3 "tr.r4";
              mk_member ~addr:4 "tr.host2";
            ];
          d_adjacencies =
            [
              over "wire3" "wire3.a" "wire3.b" "tr.r2" "tr.r3";
              over "wire4" "wire4.a" "wire4.b" "tr.r3" "tr.r4";
              over "wire5" "wire5.a" "wire5.b" "tr.r4" "tr.host2";
            ];
        };
        {
          d_name = "internet";
          d_policy = Policy.default;
          d_members =
            [
              mk_member ~addr:1 ~apps:[ "near-app/1" ] "inet.host1";
              mk_member ~addr:2 "inet.border";
              mk_member ~addr:3 ~apps:[ "far-app/1" ] "inet.host2";
            ];
          d_adjacencies =
            [
              over "access-isp" "acc.host1" "acc.r2" "inet.host1" "inet.border";
              over "transit-isp" "tr.r2" "tr.host2" "inet.border" "inet.host2";
            ];
        };
      ];
    intents = [ { it_dif = "internet"; it_src = "inet.host1"; it_dst_app = "far-app/1" } ];
  }

let scenarios () =
  [
    ("quickstart", quickstart_model ());
    ("mail-relay", mail_relay_model ());
    ("marketplace", marketplace_model ());
    ("mobile-video", mobile_video_model ());
    ("recursive-internet", recursive_internet_model ());
  ]

let scenario name = List.assoc_opt name (scenarios ())
