(* Integration tests: whole DIFs in virtual time — enrollment, naming,
   flow allocation, relaying, failover, access control, recursion. *)

module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Dif = Rina_core.Dif
module Ipcp = Rina_core.Ipcp
module Types = Rina_core.Types
module Policy = Rina_core.Policy
module Qos = Rina_core.Qos
module Topo = Rina_exp.Topo
module Scenario = Rina_exp.Scenario
module Workload = Rina_exp.Workload
module Metrics = Rina_util.Metrics
module Trace = Rina_sim.Trace
module Flight = Rina_util.Flight
module Trace_report = Rina_check.Trace_report

let check = Alcotest.check

let wait engine d = Engine.run ~until:(Engine.now engine +. d) engine

(* ---------- enrollment and bootstrap ---------- *)

let test_two_member_enrollment () =
  let net = Topo.line ~n:2 () in
  Array.iter
    (fun m -> Alcotest.(check bool) "enrolled" true (Ipcp.is_enrolled m))
    net.Topo.nodes;
  check Alcotest.int "bootstrap addr" 1 (Ipcp.address net.Topo.nodes.(0));
  check Alcotest.int "joiner addr" 2 (Ipcp.address net.Topo.nodes.(1));
  check Alcotest.int "lsdb both" 2 (Ipcp.lsdb_size net.Topo.nodes.(0));
  check Alcotest.int "lsdb both'" 2 (Ipcp.lsdb_size net.Topo.nodes.(1))

let test_unique_addresses_star () =
  (* Concurrent enrollments through different members must never remap
     the same address (regression: the duplicate-address race). *)
  let net = Topo.star ~leaves:6 () in
  let addrs = Array.to_list (Array.map Ipcp.address net.Topo.nodes) in
  let sorted = List.sort_uniq compare addrs in
  check Alcotest.int "all addresses distinct" (Array.length net.Topo.nodes)
    (List.length sorted);
  Alcotest.(check bool) "no zero addresses" true (List.for_all (fun a -> a > 0) addrs)

let test_auth_enrollment_denied () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 3 in
  let policy = { Policy.default with Policy.auth = Policy.Auth_password "secret" } in
  let dif = Dif.create engine ~policy "locked" in
  let a = Dif.add_member dif ~credentials:"secret" ~name:"good" () in
  let b = Dif.add_member dif ~credentials:"WRONG" ~name:"bad" () in
  let link = Link.create engine rng ~bit_rate:1_000_000. ~delay:0.001 () in
  Dif.connect dif a b (Link.endpoint_a link, Link.endpoint_b link);
  wait engine 10.;
  Alcotest.(check bool) "bad member rejected" false (Ipcp.is_enrolled b);
  Alcotest.(check bool) "denials recorded" true
    (Metrics.get (Ipcp.metrics a) "enroll_denied" >= 1)

let test_auth_enrollment_accepted () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 3 in
  let policy = { Policy.default with Policy.auth = Policy.Auth_password "secret" } in
  let dif = Dif.create engine ~policy "locked" in
  let a = Dif.add_member dif ~credentials:"secret" ~name:"one" () in
  let b = Dif.add_member dif ~credentials:"secret" ~name:"two" () in
  let link = Link.create engine rng ~bit_rate:1_000_000. ~delay:0.001 () in
  Dif.connect dif a b (Link.endpoint_a link, Link.endpoint_b link);
  Dif.run_until_converged dif ~max_time:20. ();
  Alcotest.(check bool) "both enrolled" true (Ipcp.is_enrolled a && Ipcp.is_enrolled b)

(* ---------- naming and flows ---------- *)

let test_flow_bidirectional_transfer () =
  let net = Topo.line ~n:2 () in
  let engine = net.Topo.engine in
  let sink = Workload.sink () in
  match Scenario.open_flow net ~src:0 ~dst:1 ~qos_id:1 ~sink () with
  | Error e -> Alcotest.fail e
  | Ok (flow, alloc_latency) ->
    Alcotest.(check bool) "allocation latency positive" true (alloc_latency >= 0.);
    let echoes = ref 0 in
    flow.Ipcp.set_on_receive (fun _ -> incr echoes);
    for i = 1 to 20 do
      flow.Ipcp.send (Bytes.of_string (Printf.sprintf "msg %d" i))
    done;
    wait engine 5.;
    check Alcotest.int "forward delivered" 20 sink.Workload.count;
    Alcotest.(check bool) "port ids local and positive" true (flow.Ipcp.port_id > 0)

let test_large_sdu_fragmentation () =
  let net = Topo.line ~n:2 () in
  let sink = Workload.sink () in
  match Scenario.open_flow net ~src:0 ~dst:1 ~qos_id:1 ~sink () with
  | Error e -> Alcotest.fail e
  | Ok (flow, _) ->
    (* Far beyond the 1400-byte MTU: must arrive as ONE intact SDU. *)
    flow.Ipcp.send (Workload.stamp ~now:(Engine.now net.Topo.engine) ~seq:0 ~size:20_000);
    wait net.Topo.engine 5.;
    check Alcotest.int "one SDU" 1 sink.Workload.count;
    check Alcotest.int "full size" 20_000 sink.Workload.bytes

let test_unknown_name_fails () =
  let net = Topo.line ~n:2 () in
  let result = ref None in
  Scenario.allocate net ~src:0 ~dst_app:(Types.apn "nobody-home") ~qos_id:0 (fun r ->
      result := Some r);
  match !result with
  | Some (Error e) ->
    Alcotest.(check bool) "mentions the name" true
      (String.length e > 0 && String.starts_with ~prefix:"destination name not found" e)
  | Some (Ok _) -> Alcotest.fail "allocated to a ghost"
  | None -> Alcotest.fail "did not resolve"

let test_acl_denies_flow () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 5 in
  let policy =
    { Policy.default with Policy.acl = Policy.Allow_pairs [ ("alice", "server") ] }
  in
  let dif = Dif.create engine ~policy "restricted" in
  let a = Dif.add_member dif ~name:"n0" () in
  let b = Dif.add_member dif ~name:"n1" () in
  let link = Link.create engine rng ~bit_rate:1_000_000. ~delay:0.001 () in
  Dif.connect dif a b (Link.endpoint_a link, Link.endpoint_b link);
  Dif.run_until_converged dif ();
  Ipcp.register_app b (Types.apn "server") ~on_flow:(fun _ -> ());
  Ipcp.register_app a (Types.apn "alice") ~on_flow:(fun _ -> ());
  Ipcp.register_app a (Types.apn "mallory") ~on_flow:(fun _ -> ());
  let results = ref [] in
  Ipcp.allocate_flow a ~src:(Types.apn "alice") ~dst:(Types.apn "server") ~qos_id:0
    ~on_result:(fun r -> results := ("alice", r) :: !results);
  Ipcp.allocate_flow a ~src:(Types.apn "mallory") ~dst:(Types.apn "server") ~qos_id:0
    ~on_result:(fun r -> results := ("mallory", r) :: !results);
  wait engine 15.;
  check Alcotest.int "both resolved" 2 (List.length !results);
  List.iter
    (fun (who, r) ->
      match (who, r) with
      | "alice", Ok _ -> ()
      | "mallory", Error e -> check Alcotest.string "denied" "access denied" e
      | "alice", Error e -> Alcotest.fail ("alice denied: " ^ e)
      | _, Ok _ -> Alcotest.fail "mallory admitted"
      | _, _ -> Alcotest.fail "unexpected")
    !results

let test_flow_close_frees_state () =
  let net = Topo.line ~n:2 () in
  let sink = Workload.sink () in
  match Scenario.open_flow net ~src:0 ~dst:1 ~qos_id:1 ~sink () with
  | Error e -> Alcotest.fail e
  | Ok (flow, _) ->
    flow.Ipcp.send (Bytes.of_string "before close");
    wait net.Topo.engine 2.;
    flow.Ipcp.close ();
    wait net.Topo.engine 2.;
    check Alcotest.int "delivered before close" 1 sink.Workload.count;
    check Alcotest.int "both endpoints clean" 0
      (List.length (Ipcp.debug_flows net.Topo.nodes.(0))
       + List.length (Ipcp.debug_flows net.Topo.nodes.(1)));
    (* Sending after close is a silent no-op. *)
    flow.Ipcp.send (Bytes.of_string "after close");
    wait net.Topo.engine 2.;
    check Alcotest.int "no delivery after close" 1 sink.Workload.count

let test_admission_busy_retry () =
  (* With admission_max_pending = 1, the destination busy-rejects the
     second concurrent request (result 4, a transient condition) and
     the requester retries behind a jittered exponential backoff — so
     once the first flow closes, the waiting request gets in.  Nothing
     here errors out: admission pressure delays, it does not fail. *)
  let policy =
    {
      Policy.default with
      Policy.congestion =
        {
          Policy.default_congestion with
          Policy.admission_max_pending = 1;
          admission_backoff = 0.02;
        };
    }
  in
  let net = Topo.line ~n:2 ~policy () in
  let engine = net.Topo.engine in
  let a = net.Topo.nodes.(0) and b = net.Topo.nodes.(1) in
  Ipcp.register_app b (Types.apn "busy-svc") ~on_flow:(fun _ -> ());
  Ipcp.register_app a (Types.apn "c1") ~on_flow:(fun _ -> ());
  Ipcp.register_app a (Types.apn "c2") ~on_flow:(fun _ -> ());
  let results = Array.make 2 None in
  List.iteri
    (fun i src ->
      Ipcp.allocate_flow a ~src:(Types.apn src) ~dst:(Types.apn "busy-svc")
        ~qos_id:0 ~on_result:(fun r -> results.(i) <- Some r))
    [ "c1"; "c2" ];
  wait engine 5.;
  let ok_flows =
    Array.to_list results
    |> List.filter_map (function Some (Ok f) -> Some f | _ -> None)
  in
  check Alcotest.int "exactly one admitted while the slot is held" 1
    (List.length ok_flows);
  Alcotest.(check bool) "destination counted busy rejections" true
    (Metrics.get (Ipcp.metrics b) "alloc_busy_rejected" >= 1);
  Alcotest.(check bool) "requester counted busy retries" true
    (Metrics.get (Ipcp.metrics a) "alloc_busy" >= 1);
  (* Free the slot: the backed-off request must now be admitted. *)
  (List.hd ok_flows).Ipcp.close ();
  wait engine 5.;
  let ok_after =
    Array.to_list results
    |> List.filter_map (function Some (Ok f) -> Some f | _ -> None)
  in
  check Alcotest.int "waiting request admitted after close" 2
    (List.length ok_after);
  Alcotest.(check bool) "no allocation failed" true
    (Array.for_all
       (function Some (Error _) -> false | _ -> true)
       results)

let test_directory_updates_after_unregister () =
  let net = Topo.line ~n:2 () in
  let app = Types.apn "transient" in
  Ipcp.register_app net.Topo.nodes.(1) app ~on_flow:(fun _ -> ());
  wait net.Topo.engine 2.;
  Alcotest.(check bool) "resolvable at peer" true
    (Ipcp.resolve_name net.Topo.nodes.(0) app <> None);
  Ipcp.unregister_app net.Topo.nodes.(1) app;
  wait net.Topo.engine 2.;
  Alcotest.(check bool) "withdrawn at peer" true
    (Ipcp.resolve_name net.Topo.nodes.(0) app = None)

(* ---------- relaying ---------- *)

let test_relay_line_of_four () =
  let net = Topo.line ~n:4 () in
  let sink = Workload.sink () in
  match Scenario.open_flow net ~src:0 ~dst:3 ~qos_id:1 ~sink () with
  | Error e -> Alcotest.fail e
  | Ok (flow, _) ->
    for _ = 1 to 10 do
      flow.Ipcp.send (Bytes.make 500 'r')
    done;
    wait net.Topo.engine 10.;
    check Alcotest.int "delivered end to end" 10 sink.Workload.count;
    Alcotest.(check bool) "middle nodes relayed" true
      (Metrics.get (Ipcp.rmt_metrics net.Topo.nodes.(1)) "relayed" > 0
       && Metrics.get (Ipcp.rmt_metrics net.Topo.nodes.(2)) "relayed" > 0)

let test_mgmt_pdus_are_relayed () =
  (* Flow allocation itself crosses a relay: nodes 0 and 2 are not
     adjacent, so the M_CREATE had to be forwarded by node 1. *)
  let net = Topo.line ~n:3 () in
  match Scenario.open_flow net ~src:0 ~dst:2 ~qos_id:0 () with
  | Error e -> Alcotest.fail e
  | Ok _ -> ()

(* ---------- failover / multihoming ---------- *)

let test_multihoming_local_failover () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 7 in
  let dif = Dif.create engine "mh" in
  let a = Dif.add_member dif ~name:"a" () in
  let b = Dif.add_member dif ~name:"b" () in
  let l1 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 () in
  let l2 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 () in
  Dif.connect dif a b (Link.endpoint_a l1, Link.endpoint_b l1);
  Dif.connect dif a b (Link.endpoint_a l2, Link.endpoint_b l2);
  Dif.run_until_converged dif ();
  (match Ipcp.neighbors a with
   | [ (_, ports) ] -> check Alcotest.int "two points of attachment" 2 (List.length ports)
   | _ -> Alcotest.fail "expected one neighbour");
  let got = ref 0 in
  Ipcp.register_app b (Types.apn "svc") ~on_flow:(fun flow ->
      flow.Ipcp.set_on_receive (fun _ -> incr got));
  Ipcp.register_app a (Types.apn "cli") ~on_flow:(fun _ -> ());
  let flow = ref None in
  Ipcp.allocate_flow a ~src:(Types.apn "cli") ~dst:(Types.apn "svc") ~qos_id:1
    ~on_result:(function Ok f -> flow := Some f | Error e -> Alcotest.fail e);
  wait engine 5.;
  (match !flow with
   | Some f ->
     f.Ipcp.send (Bytes.of_string "one");
     wait engine 1.;
     Link.set_up l1 false;
     f.Ipcp.send (Bytes.of_string "two");
     wait engine 3.;
     check Alcotest.int "both delivered (reliable over failover)" 2 !got;
     Alcotest.(check bool) "local reroute counted" true
       (Metrics.get (Ipcp.metrics a) "local_reroute"
        + Metrics.get (Ipcp.metrics b) "local_reroute"
        >= 1)
   | None -> Alcotest.fail "no flow")

(* The flight-recorder view of the same failover: a steady stream over
   a multihomed pair, one attachment killed mid-stream.  The recorder
   must capture the reroute as a Handoff event, and the interruption
   window reported offline (Trace_report.delivery_gap) over EFCP
   deliveries must sit at the failure. *)
let test_traced_failover_interruption_window () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 13 in
  let dif = Dif.create engine "mh" in
  let a = Dif.add_member dif ~name:"a" () in
  let b = Dif.add_member dif ~name:"b" () in
  let l1 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 ~label:"l1" () in
  let l2 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 ~label:"l2" () in
  Dif.connect dif a b (Link.endpoint_a l1, Link.endpoint_b l1);
  Dif.connect dif a b (Link.endpoint_a l2, Link.endpoint_b l2);
  Dif.run_until_converged dif ();
  let got = ref 0 in
  Ipcp.register_app b (Types.apn "svc") ~on_flow:(fun flow ->
      flow.Ipcp.set_on_receive (fun _ -> incr got));
  Ipcp.register_app a (Types.apn "cli") ~on_flow:(fun _ -> ());
  let flow = ref None in
  Ipcp.allocate_flow a ~src:(Types.apn "cli") ~dst:(Types.apn "svc") ~qos_id:1
    ~on_result:(function Ok f -> flow := Some f | Error e -> Alcotest.fail e);
  wait engine 5.;
  let f = Option.get !flow in
  let tr = Trace.create engine in
  Trace.attach tr;
  let sent = ref 0 in
  let rec pump () =
    if !sent < 40 then begin
      incr sent;
      f.Ipcp.send (Bytes.create 32);
      ignore (Engine.schedule engine ~delay:0.05 pump)
    end
  in
  pump ();
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> Link.set_up l1 false));
  wait engine 10.;
  Trace.detach ();
  check Alcotest.int "stream delivered across failover" 40 !got;
  let evs = Trace.typed_events tr in
  check Alcotest.bool "handoff recorded" true
    (List.exists (fun ev -> ev.Flight.kind = Flight.Handoff) evs);
  (match Trace_report.delivery_gap ~component:"efcp" evs with
  | Some (gap, start) ->
    (* the interruption window sits at the failure, and dwarfs the
       50 ms inter-send spacing of the undisturbed stream *)
    check Alcotest.bool "gap is the outage" true (gap > 0.05 && start >= 0.9)
  | None -> Alcotest.fail "expected a delivery gap")

let test_ring_reroutes_after_link_failure () =
  (* Square ring 0-1-2-3-0: kill 0-1; 0 must still reach 1 the long
     way after the LSAs propagate. *)
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 9 in
  let dif = Dif.create engine "ring" in
  let nodes = Array.init 4 (fun i -> Dif.add_member dif ~name:(Printf.sprintf "r%d" i) ()) in
  let links =
    Array.init 4 (fun i ->
        let l = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 () in
        Dif.connect dif nodes.(i) nodes.((i + 1) mod 4)
          (Link.endpoint_a l, Link.endpoint_b l);
        l)
  in
  Dif.run_until_converged dif ();
  let sink = Workload.sink () in
  Ipcp.register_app nodes.(1) (Types.apn "dst") ~on_flow:(fun flow ->
      flow.Ipcp.set_on_receive (fun sdu ->
          Workload.on_sdu sink ~now:(Engine.now engine) sdu));
  Ipcp.register_app nodes.(0) (Types.apn "src") ~on_flow:(fun _ -> ());
  let flow = ref None in
  Ipcp.allocate_flow nodes.(0) ~src:(Types.apn "src") ~dst:(Types.apn "dst") ~qos_id:1
    ~on_result:(function Ok f -> flow := Some f | Error e -> Alcotest.fail e);
  wait engine 5.;
  let f = Option.get !flow in
  f.Ipcp.send (Bytes.of_string "direct");
  wait engine 2.;
  Link.set_up links.(0) false;
  wait engine 2.;
  f.Ipcp.send (Bytes.of_string "the long way");
  wait engine 5.;
  check Alcotest.int "both arrived" 2 sink.Workload.count;
  (* The reroute shows up as relaying at 3 or 2. *)
  Alcotest.(check bool) "rerouted around the ring" true
    (Metrics.get (Ipcp.rmt_metrics nodes.(3)) "relayed" > 0
     || Metrics.get (Ipcp.rmt_metrics nodes.(2)) "relayed" > 0)

(* ---------- recursion ---------- *)

let test_stacked_dif_transfer () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 11 in
  let mk_link () = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002 () in
  let lower = Dif.create engine "lower" in
  let la = Dif.add_member lower ~name:"la" () in
  let lb = Dif.add_member lower ~name:"lb" () in
  let l = mk_link () in
  Dif.connect lower la lb (Link.endpoint_a l, Link.endpoint_b l);
  Dif.run_until_converged lower ();
  let upper = Dif.create engine "upper" in
  let ua = Dif.add_member upper ~name:"ua" () in
  let ub = Dif.add_member upper ~name:"ub" () in
  Dif.stack_connect ~lower_a:la ~lower_b:lb ~upper_a:ua ~upper_b:ub ();
  Dif.run_until_converged upper ~max_time:30. ();
  Alcotest.(check bool) "upper members enrolled" true
    (Ipcp.is_enrolled ua && Ipcp.is_enrolled ub);
  let got = ref [] in
  Ipcp.register_app ub (Types.apn "up-app") ~on_flow:(fun flow ->
      flow.Ipcp.set_on_receive (fun sdu -> got := Bytes.to_string sdu :: !got));
  Ipcp.register_app ua (Types.apn "up-cli") ~on_flow:(fun _ -> ());
  Ipcp.allocate_flow ua ~src:(Types.apn "up-cli") ~dst:(Types.apn "up-app") ~qos_id:1
    ~on_result:(function
      | Ok f -> f.Ipcp.send (Bytes.of_string "recursion works")
      | Error e -> Alcotest.fail e);
  wait engine 10.;
  check Alcotest.(list string) "delivered through two ranks" [ "recursion works" ] !got;
  (* The lower DIF carried real flows for the upper one. *)
  Alcotest.(check bool) "lower flows allocated" true
    (Metrics.get (Ipcp.metrics la) "flows_allocated" >= 2)

(* ---------- security plumbing ---------- *)

let test_unauthenticated_injection_dropped () =
  let net = Topo.line ~n:2 () in
  let engine = net.Topo.engine in
  let b = net.Topo.nodes.(1) in
  (* Attacker taps a fresh wire to member b and injects a well-formed
     data PDU aimed at b's address. *)
  let rng = Rina_util.Prng.create 13 in
  let l = Link.create engine rng ~bit_rate:1_000_000. ~delay:0.001 () in
  ignore (Ipcp.bind_port b (Link.endpoint_b l));
  let before = Metrics.get (Ipcp.metrics b) "unknown_cep" in
  let pdu =
    Rina_core.Pdu.make ~pdu_type:Rina_core.Pdu.Dtp ~dst_addr:(Ipcp.address b)
      ~src_addr:1 ~dst_cep:1 ~src_cep:1 ~seq:1 (Bytes.of_string "evil")
  in
  (Link.endpoint_a l).Rina_sim.Chan.send
    (Rina_core.Sdu_protection.protect (Rina_core.Pdu.encode pdu));
  wait engine 2.;
  Alcotest.(check bool) "dropped at ingress" true
    (Metrics.get (Ipcp.rmt_metrics b) "ingress_dropped" >= 1);
  check Alcotest.int "never reached a flow" before
    (Metrics.get (Ipcp.metrics b) "unknown_cep")

let test_dif_helpers () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 19 in
  let dif = Dif.create engine "helpers" in
  check Alcotest.string "name" "helpers" (Dif.name dif);
  Alcotest.(check bool) "engine accessor" true (Dif.engine dif == engine);
  Alcotest.(check bool) "default policy" true (Dif.policy dif = Policy.default);
  let a = Dif.add_member dif ~name:"alpha" () in
  let b = Dif.add_member dif ~name:"beta" () in
  check Alcotest.int "members" 2 (List.length (Dif.members dif));
  Alcotest.(check bool) "find by name" true
    (match Dif.find_member dif "alpha" with Some x -> x == a | None -> false);
  Alcotest.(check bool) "find missing" true
    (match Dif.find_member dif "gamma" with Some _ -> false | None -> true);
  let l = Link.create engine rng ~bit_rate:1_000_000. ~delay:0.001 () in
  Dif.connect dif a b (Link.endpoint_a l, Link.endpoint_b l);
  Dif.run_until_converged dif ();
  (* The lifecycle ran: alpha bootstrapped, beta enrolled through it. *)
  Alcotest.(check bool) "bootstrap member enrolled" true (Ipcp.is_enrolled a);
  Alcotest.(check bool) "joiner enrolled" true (Ipcp.is_enrolled b)

let test_unknown_qos_falls_back_to_best_effort () =
  let net = Topo.line ~n:2 () in
  let sink = Workload.sink () in
  match Scenario.open_flow net ~src:0 ~dst:1 ~qos_id:777 ~sink () with
  | Error e -> Alcotest.fail e
  | Ok (flow, _) ->
    check Alcotest.string "fell back" "best-effort" flow.Ipcp.qos.Qos.name;
    flow.Ipcp.send (Bytes.make 64 'q');
    wait net.Topo.engine 2.;
    check Alcotest.int "still works" 1 sink.Workload.count

let test_member_leave_withdraws_everything () =
  (* Triangle 0-1-2: member 2 leaves gracefully; its name disappears
     from the directory, routes to it vanish, and 0<->1 still works. *)
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 15 in
  let dif = Dif.create engine "tri" in
  let nodes = Array.init 3 (fun i -> Dif.add_member dif ~name:(Printf.sprintf "t%d" i) ()) in
  let wire a b =
    let l = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 () in
    Dif.connect dif nodes.(a) nodes.(b) (Link.endpoint_a l, Link.endpoint_b l)
  in
  wire 0 1;
  wire 1 2;
  wire 2 0;
  Dif.run_until_converged dif ();
  let leaver_addr = Ipcp.address nodes.(2) in
  Ipcp.register_app nodes.(2) (Types.apn "doomed") ~on_flow:(fun _ -> ());
  wait engine 2.;
  Alcotest.(check bool) "name visible before" true
    (Ipcp.resolve_name nodes.(0) (Types.apn "doomed") <> None);
  Ipcp.leave nodes.(2);
  wait engine 3.;
  Alcotest.(check bool) "left" false (Ipcp.is_enrolled nodes.(2));
  Alcotest.(check bool) "name withdrawn" true
    (Ipcp.resolve_name nodes.(0) (Types.apn "doomed") = None);
  Alcotest.(check bool) "no route to the leaver" true
    (List.for_all (fun (dst, _, _) -> dst <> leaver_addr)
       (Ipcp.routing_table nodes.(0)));
  (* Remaining members still talk. *)
  let got = ref 0 in
  Ipcp.register_app nodes.(1) (Types.apn "still-here") ~on_flow:(fun flow ->
      flow.Ipcp.set_on_receive (fun _ -> incr got));
  Ipcp.register_app nodes.(0) (Types.apn "caller") ~on_flow:(fun _ -> ());
  Ipcp.allocate_flow nodes.(0) ~src:(Types.apn "caller") ~dst:(Types.apn "still-here")
    ~qos_id:1
    ~on_result:(function
      | Ok f -> f.Ipcp.send (Bytes.of_string "alive")
      | Error e -> Alcotest.fail e);
  wait engine 10.;
  check Alcotest.int "survivors communicate" 1 !got

let test_leave_then_reenroll () =
  let net = Topo.line ~n:2 () in
  let engine = net.Topo.engine in
  let b = net.Topo.nodes.(1) in
  let old_addr = Ipcp.address b in
  Ipcp.leave b;
  wait engine 2.;
  Alcotest.(check bool) "unenrolled" false (Ipcp.is_enrolled b);
  (* Opt back in: hellos still flow on the surviving wire, so b
     re-enrolls and gets a fresh address from the namespace manager. *)
  Ipcp.set_auto_enroll b true;
  wait engine 10.;
  Alcotest.(check bool) "re-enrolled" true (Ipcp.is_enrolled b);
  Alcotest.(check bool) "fresh address" true
    (Ipcp.address b > 0 && Ipcp.address b <> old_addr)

let test_grant_timeout_then_retry () =
  (* Enrollment through a member whose route to the namespace manager
     is down: the grant request times out, the joiner retries, and
     once the path heals everyone enrolls with distinct addresses. *)
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 17 in
  let dif = Dif.create engine "slowpath" in
  let m0 = Dif.add_member dif ~name:"mgr" () in
  let m1 = Dif.add_member dif ~name:"mid" () in
  let m2 = Dif.add_member dif ~name:"edge" () in
  let l01 = Link.create engine rng ~bit_rate:1_000_000. ~delay:0.001 () in
  let l12 = Link.create engine rng ~bit_rate:1_000_000. ~delay:0.001 () in
  Dif.connect dif m0 m1 (Link.endpoint_a l01, Link.endpoint_b l01);
  Dif.run_until_converged dif ~max_time:15. ();
  (* Cut mid<->mgr silently, then attach the edge node to mid. *)
  Link.set_blackhole l01 true;
  Dif.connect dif m1 m2 (Link.endpoint_a l12, Link.endpoint_b l12);
  wait engine 6.;
  Alcotest.(check bool) "cannot enroll while manager unreachable" false
    (Ipcp.is_enrolled m2);
  Link.set_blackhole l01 false;
  wait engine 20.;
  Alcotest.(check bool) "enrolls once the path heals" true (Ipcp.is_enrolled m2);
  let addrs = List.map Ipcp.address [ m0; m1; m2 ] in
  check Alcotest.int "distinct addresses" 3 (List.length (List.sort_uniq compare addrs))

let test_custom_qos_cubes () =
  (* A DIF can ship its own QoS cubes; flows pick them up by id. *)
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 21 in
  let video =
    {
      Qos.id = 9;
      name = "video";
      reliable = false;
      in_order = true;
      priority = 3;
      avg_bandwidth = 4e6;
      max_delay = 0.1;
    }
  in
  let dif = Dif.create engine ~qos_cubes:(video :: Qos.standard_cubes) "studio" in
  let a = Dif.add_member dif ~name:"cam" () in
  let b = Dif.add_member dif ~name:"screen" () in
  let l = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 () in
  Dif.connect dif a b (Link.endpoint_a l, Link.endpoint_b l);
  Dif.run_until_converged dif ();
  let got = ref 0 in
  Ipcp.register_app b (Types.apn "display") ~on_flow:(fun flow ->
      check Alcotest.string "server side sees the cube" "video"
        flow.Ipcp.qos.Qos.name;
      flow.Ipcp.set_on_receive (fun _ -> incr got));
  Ipcp.register_app a (Types.apn "camera") ~on_flow:(fun _ -> ());
  Ipcp.allocate_flow a ~src:(Types.apn "camera") ~dst:(Types.apn "display") ~qos_id:9
    ~on_result:(function
      | Ok flow ->
        check Alcotest.string "client side too" "video" flow.Ipcp.qos.Qos.name;
        flow.Ipcp.send (Bytes.make 100 'v')
      | Error e -> Alcotest.fail e);
  wait engine 5.;
  check Alcotest.int "delivered" 1 !got

let test_policy_language_drives_dif () =
  (* A DIF built from a parsed declarative spec behaves accordingly:
     window=1 (stop and wait) still delivers everything. *)
  match Rina_core.Policy_lang.parse "[efcp]\nwindow = 1" with
  | Error e -> Alcotest.fail e
  | Ok policy -> (
    let net = Topo.line ~policy ~n:2 () in
    let sink = Workload.sink () in
    match Scenario.open_flow net ~src:0 ~dst:1 ~qos_id:1 ~sink () with
    | Error e -> Alcotest.fail e
    | Ok (flow, _) ->
      for _ = 1 to 10 do
        flow.Ipcp.send (Bytes.make 200 's')
      done;
      wait net.Topo.engine 10.;
      check Alcotest.int "stop-and-wait delivers" 10 sink.Workload.count)

(* ---------- chaos: crash, dead-peer detection, EFCP abort ---------- *)

(* Tight detection timers so failure detection plays out in a few
   virtual seconds: keepalives every 0.25 s, a peer is dead after
   0.8 s of silence, stale LSAs age out after 3 s. *)
let chaos_policy =
  let p = Policy.default in
  {
    p with
    Policy.routing =
      {
        Policy.hello_interval = 0.2;
        dead_interval = 0.7;
        lsa_min_interval = 0.02;
        refresh_ticks = 2;
        keepalive_interval = 0.25;
        dead_peer_timeout = 0.8;
        lsa_max_age = 3.0;
        anti_entropy_interval = 0.;
      };
  }

let test_crash_restart_fresh_address () =
  let net = Topo.line ~policy:chaos_policy ~n:3 () in
  let engine = net.Topo.engine in
  let n0 = net.Topo.nodes.(0) and n1 = net.Topo.nodes.(1) in
  let old_addr = Ipcp.address n1 in
  check Alcotest.int "converged lsdb has all three" 3 (Ipcp.lsdb_size n0);
  Ipcp.crash n1;
  Alcotest.(check bool) "down after crash" false (Ipcp.is_up n1);
  (* silence > dead_peer_timeout: the survivors declare the relay dead
     and withdraw its LSA without any goodbye from it *)
  wait engine 2.0;
  Alcotest.(check bool) "LSA withdrawn at n0" true (Ipcp.lsdb_size n0 < 3);
  Alcotest.(check bool) "adjacency torn down at n0" true
    (not (List.mem_assoc old_addr (Ipcp.neighbors n0)));
  Ipcp.restart n1;
  (* re-enrollment on the next hello, reconvergence, and one aging
     window so any stale entry for the old incarnation expires *)
  wait engine 10.0;
  Alcotest.(check bool) "re-enrolled" true (Ipcp.is_enrolled n1);
  let fresh = Ipcp.address n1 in
  Alcotest.(check bool) "fresh nonzero address" true
    (fresh > 0 && fresh <> old_addr);
  check Alcotest.int "lsdb back to three live members" 3 (Ipcp.lsdb_size n0);
  Alcotest.(check bool) "no stale LSA for the old address" true
    (not
       (List.exists
          (fun (dst, _, _) -> dst = old_addr)
          (Ipcp.routing_table n0)));
  (* end-to-end proof of reconvergence: a flow across the restarted
     relay delivers *)
  let sink = Workload.sink () in
  match Scenario.open_flow net ~src:0 ~dst:2 ~qos_id:1 ~sink () with
  | Error e -> Alcotest.fail e
  | Ok (flow, _) ->
    flow.Ipcp.send (Bytes.of_string "through the new incarnation");
    wait engine 5.;
    check Alcotest.int "delivered across restarted relay" 1
      sink.Workload.count

let test_dead_peer_fires_only_after_timeout () =
  (* Hello-based adjacency expiry is parked (dead_interval huge) so
     only the RIEP keepalive / dead-peer path can declare death. *)
  let policy =
    {
      chaos_policy with
      Policy.routing =
        {
          chaos_policy.Policy.routing with
          Policy.dead_interval = 1000.;
          keepalive_interval = 0.25;
          dead_peer_timeout = 2.0;
        };
    }
  in
  let net = Topo.line ~policy ~n:2 () in
  let engine = net.Topo.engine in
  let n0 = net.Topo.nodes.(0) in
  let link = net.Topo.links.(0) in
  let peer = Ipcp.address net.Topo.nodes.(1) in
  (* a silence shorter than the timeout must not kill the adjacency *)
  Link.set_blackhole link true;
  wait engine 1.0;
  Link.set_blackhole link false;
  wait engine 1.0;
  Alcotest.(check bool) "short silence: peer kept" true
    (List.mem_assoc peer (Ipcp.neighbors n0));
  (* permanent silence: still alive just before the timeout... *)
  Link.set_blackhole link true;
  wait engine 1.2;
  Alcotest.(check bool) "not yet declared before timeout" true
    (List.mem_assoc peer (Ipcp.neighbors n0));
  (* ...and declared dead (adjacency gone, LSA withdrawn) after it *)
  wait engine 2.0;
  Alcotest.(check bool) "declared dead after timeout" false
    (List.mem_assoc peer (Ipcp.neighbors n0));
  check Alcotest.int "peer LSA withdrawn" 1 (Ipcp.lsdb_size n0)

let test_efcp_abort_surfaces_to_owner () =
  (* Park every routing-level detector so EFCP retransmission
     exhaustion is the only thing that can kill the flow. *)
  let p = Policy.default in
  let policy =
    {
      p with
      Policy.efcp =
        { p.Policy.efcp with Policy.init_rto = 0.1; min_rto = 0.05; max_rtx = 3 };
      routing =
        {
          p.Policy.routing with
          Policy.dead_interval = 1000.;
          keepalive_interval = 0.;
          dead_peer_timeout = 1000.;
          lsa_max_age = 0.;
        };
    }
  in
  let net = Topo.line ~policy ~n:2 () in
  let engine = net.Topo.engine in
  let link = net.Topo.links.(0) in
  let sink = Workload.sink () in
  match Scenario.open_flow net ~src:0 ~dst:1 ~qos_id:1 ~sink () with
  | Error e -> Alcotest.fail e
  | Ok (flow, _) ->
    let err = ref None in
    flow.Ipcp.set_on_error (fun reason -> err := Some reason);
    flow.Ipcp.send (Bytes.of_string "gets through");
    wait engine 2.;
    check Alcotest.int "healthy delivery first" 1 sink.Workload.count;
    Alcotest.(check bool) "no error yet" true (!err = None);
    Link.set_blackhole link true;
    flow.Ipcp.send (Bytes.of_string "into the void");
    wait engine 10.;
    Alcotest.(check bool) "abort surfaced to the flow owner" true
      (!err <> None);
    Alcotest.(check bool) "flow_errors metric counted" true
      (Metrics.get (Ipcp.metrics net.Topo.nodes.(0)) "flow_errors" > 0)

(* ---------- RIB anti-entropy ---------- *)

(* A directory flood lost to a partition leaves the far node divergent
   forever unless something re-offers the state: with
   [anti_entropy_interval > 0] periodic peer syncs repair it (even
   through a corrupting channel after the heal); with it disabled, the
   divergence is permanent — the control run. *)
let run_partitioned_registration ~ae =
  let p = Policy.default in
  let policy =
    { p with Policy.routing = { p.Policy.routing with Policy.anti_entropy_interval = ae } }
  in
  let net = Topo.line ~seed:11 ~policy ~n:3 () in
  let engine = net.Topo.engine in
  let far_link = net.Topo.links.(1) in
  (* Silent partition of b–c: short of dead_peer_timeout, so the
     adjacency survives and nothing re-enrolls (re-enrollment would sync
     the RIB on its own and mask what we are testing). *)
  Link.set_blackhole far_link true;
  Ipcp.register_app net.Topo.nodes.(0) (Types.apn "late") ~on_flow:(fun _ -> ());
  wait engine 2.0;
  let path = "/dir/" ^ Types.apn_to_string (Types.apn "late") in
  let far_rib = Ipcp.rib net.Topo.nodes.(2) in
  let divergent = not (Rina_core.Rib.exists far_rib path) in
  (* Heal the partition but leave the channel hostile: 30% of frames
     are corrupted, so one-shot repairs can be damaged in flight and
     only a periodic mechanism is guaranteed to get through. *)
  Link.set_blackhole far_link false;
  Link.set_mangle far_link (Rina_sim.Mangle.make ~corrupt:0.3 ());
  wait engine 20.0;
  (divergent, Rina_core.Rib.exists far_rib path)

let test_rib_anti_entropy_reconverges () =
  let divergent, converged = run_partitioned_registration ~ae:2.0 in
  Alcotest.(check bool) "partition caused divergence" true divergent;
  Alcotest.(check bool) "anti-entropy repaired the far RIB" true converged;
  let divergent0, converged0 = run_partitioned_registration ~ae:0. in
  Alcotest.(check bool) "control run also diverged" true divergent0;
  Alcotest.(check bool) "without anti-entropy it stays divergent" false
    converged0

let () =
  Alcotest.run "integration"
    [
      ( "enrollment",
        [
          Alcotest.test_case "two members" `Quick test_two_member_enrollment;
          Alcotest.test_case "unique addresses (star)" `Quick test_unique_addresses_star;
          Alcotest.test_case "auth denied" `Quick test_auth_enrollment_denied;
          Alcotest.test_case "auth accepted" `Quick test_auth_enrollment_accepted;
        ] );
      ( "flows",
        [
          Alcotest.test_case "bidirectional transfer" `Quick test_flow_bidirectional_transfer;
          Alcotest.test_case "large sdu fragmentation" `Quick test_large_sdu_fragmentation;
          Alcotest.test_case "unknown name" `Quick test_unknown_name_fails;
          Alcotest.test_case "acl denies" `Quick test_acl_denies_flow;
          Alcotest.test_case "close frees state" `Quick test_flow_close_frees_state;
          Alcotest.test_case "admission busy retry" `Quick test_admission_busy_retry;
          Alcotest.test_case "unregister withdraws" `Quick test_directory_updates_after_unregister;
        ] );
      ( "relaying",
        [
          Alcotest.test_case "line of four" `Quick test_relay_line_of_four;
          Alcotest.test_case "mgmt relayed" `Quick test_mgmt_pdus_are_relayed;
        ] );
      ( "failover",
        [
          Alcotest.test_case "multihoming local" `Quick test_multihoming_local_failover;
          Alcotest.test_case "traced failover window" `Quick
            test_traced_failover_interruption_window;
          Alcotest.test_case "ring reroute" `Quick test_ring_reroutes_after_link_failure;
        ] );
      ("recursion", [ Alcotest.test_case "stacked transfer" `Quick test_stacked_dif_transfer ]);
      ( "chaos",
        [
          Alcotest.test_case "crash then restart: fresh address" `Quick
            test_crash_restart_fresh_address;
          Alcotest.test_case "dead-peer timeout respected" `Quick
            test_dead_peer_fires_only_after_timeout;
          Alcotest.test_case "efcp abort surfaces" `Quick
            test_efcp_abort_surfaces_to_owner;
          Alcotest.test_case "rib anti-entropy reconverges" `Quick
            test_rib_anti_entropy_reconverges;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "dif helpers and trace" `Quick test_dif_helpers;
          Alcotest.test_case "unknown qos fallback" `Quick
            test_unknown_qos_falls_back_to_best_effort;
          Alcotest.test_case "leave withdraws everything" `Quick
            test_member_leave_withdraws_everything;
          Alcotest.test_case "leave then re-enroll" `Quick test_leave_then_reenroll;
          Alcotest.test_case "grant timeout then retry" `Quick test_grant_timeout_then_retry;
        ] );
      ( "security",
        [
          Alcotest.test_case "injection dropped" `Quick test_unauthenticated_injection_dropped;
          Alcotest.test_case "declarative policy drives DIF" `Quick test_policy_language_drives_dif;
          Alcotest.test_case "custom qos cubes" `Quick test_custom_qos_cubes;
        ] );
    ]
