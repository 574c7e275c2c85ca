(* Integration tests: whole DIFs in virtual time — enrollment, naming,
   flow allocation, relaying, failover, access control, recursion. *)

module Engine = Rina_sim.Engine
module Chan = Rina_sim.Chan
module Pdu = Rina_core.Pdu
module Riep = Rina_core.Riep
module Rib = Rina_core.Rib
module Link = Rina_sim.Link
module Dif = Rina_core.Dif
module Ipcp = Rina_core.Ipcp
module Routing = Rina_core.Routing
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
  let node = net.Topo.nodes.(0) in
  let src = Types.apn "client-n0" in
  Ipcp.register_app node src ~on_flow:(fun _ -> ());
  let result = ref None in
  Ipcp.allocate_flow node ~src ~dst:(Types.apn "nobody-home") ~qos_id:0
    ~on_result:(fun r -> result := Some r);
  Scenario.drive_until net.Topo.engine ~timeout:30. (fun () -> !result <> None);
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
  Trace.close tr;
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

(* The relay decision's point of attachment is sticky.  Two members
   joined by two parallel links; [a]'s data frames are counted per
   link.  Data rides one port while it lives, a dead port costs exactly
   one local reroute and one Handoff, and traffic stays on the survivor
   after the first link returns. *)
let test_sticky_point_of_attachment () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 21 in
  let dif = Dif.create engine "mh" in
  let a = Dif.add_member dif ~name:"a" () in
  let b = Dif.add_member dif ~name:"b" () in
  let counting (c : Chan.t) n =
    {
      c with
      Chan.send =
        (fun frame ->
          if Pdu.Peek.is_dtp frame then incr n;
          c.Chan.send frame);
    }
  in
  let on1 = ref 0 and on2 = ref 0 in
  let l1 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 () in
  let l2 = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 () in
  Dif.connect dif a b (counting (Link.endpoint_a l1) on1, Link.endpoint_b l1);
  Dif.connect dif a b (counting (Link.endpoint_a l2) on2, Link.endpoint_b l2);
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
  let burst () =
    for _ = 1 to 10 do
      f.Ipcp.send (Bytes.create 64)
    done;
    wait engine 3.
  in
  let reroutes () = Metrics.get (Ipcp.metrics a) "local_reroute" in
  let handoffs () =
    List.length
      (List.filter
         (fun ev ->
           ev.Flight.kind = Flight.Handoff && ev.Flight.flow = Ipcp.address b)
         (Trace.typed_events tr))
  in
  burst ();
  check Alcotest.int "delivered" 10 !got;
  check Alcotest.(pair int int) "one port while it lives" (10, 0) (!on1, !on2);
  check Alcotest.int "no reroute" 0 (reroutes ());
  Link.set_up l1 false;
  burst ();
  check Alcotest.int "delivered after the kill" 20 !got;
  check Alcotest.(pair int int) "moved to the survivor" (10, 10) (!on1, !on2);
  check Alcotest.int "one reroute" 1 (reroutes ());
  check Alcotest.int "one handoff" 1 (handoffs ());
  Link.set_up l1 true;
  wait engine 3.;
  burst ();
  Trace.close tr;
  check Alcotest.int "delivered after the return" 30 !got;
  check Alcotest.(pair int int) "stays on the survivor" (10, 20) (!on1, !on2);
  check Alcotest.int "still one reroute" 1 (reroutes ());
  check Alcotest.int "still one handoff" 1 (handoffs ())

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

(* ---------- payload copies ---------- *)

(* Open a reliable flow from [src] to [dst] and count what arrives. *)
let open_counted_flow engine src dst =
  let got = ref 0 in
  Ipcp.register_app dst (Types.apn "copy-sink") ~on_flow:(fun flow ->
      flow.Ipcp.set_on_receive (fun _ -> incr got));
  Ipcp.register_app src (Types.apn "copy-src") ~on_flow:(fun _ -> ());
  let flow = ref None in
  Ipcp.allocate_flow src ~src:(Types.apn "copy-src") ~dst:(Types.apn "copy-sink")
    ~qos_id:Qos.reliable.Qos.id ~on_result:(function
    | Ok f -> flow := Some f
    | Error e -> Alcotest.fail e);
  wait engine 5.;
  ((Option.get !flow).Ipcp.send, got)

(* Bytes allocated while [n] SDUs of [size] bytes cross a fresh network
   and are delivered.  The SDUs are allocated before measuring, and each
   run covers the same stretch of virtual time, so two sizes differ only
   in what each payload byte costs.  Full major collections bracket the
   run so that [Gc.allocated_bytes] counts the minor heap exactly. *)
let alloc_for_sdus build ~n ~size =
  let engine, send, got = build () in
  let sdus = List.init n (fun _ -> Bytes.make size 'p') in
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  List.iter send sdus;
  wait engine 5.;
  Gc.full_major ();
  let after = Gc.allocated_bytes () in
  check Alcotest.int (Printf.sprintf "%d B SDUs delivered" size) n !got;
  after -. before

(* Payload copies per SDU: the allocation slope between 200 B and
   1200 B SDUs, in payloads.  Every SDU fits one fragment. *)
let copies_per_sdu build =
  let n = 200 in
  let small = alloc_for_sdus build ~n ~size:200
  and large = alloc_for_sdus build ~n ~size:1200 in
  (large -. small) /. float_of_int (n * (1200 - 200))

(* One rank, one relay: the SDU is copied into its frame when it is
   fragmented and out of it when it is reassembled; encoding, relaying
   and decoding copy nothing. *)
let test_payload_copies_relay_line () =
  let build () =
    let net = Topo.line ~n:3 () in
    let send, got = open_counted_flow net.Topo.engine net.Topo.nodes.(0) net.Topo.nodes.(2) in
    (net.Topo.engine, send, got)
  in
  let copies = copies_per_sdu build in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f payload copies per SDU, at most 2.5" copies)
    true (copies <= 2.5)

(* Two ranks, no shims: each rank adds its fragment copy and its
   reassembly copy, and nothing else. *)
let test_payload_copies_two_ranks () =
  let build () =
    let engine = Engine.create () in
    let rng = Rina_util.Prng.create 11 in
    let lower = Dif.create engine "lower" in
    let la = Dif.add_member lower ~name:"la" () in
    let lb = Dif.add_member lower ~name:"lb" () in
    let l = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002 () in
    Dif.connect lower la lb (Link.endpoint_a l, Link.endpoint_b l);
    Dif.run_until_converged lower ();
    let upper = Dif.create engine ~rank:1 "upper" in
    let ua = Dif.add_member upper ~name:"ua" () in
    let ub = Dif.add_member upper ~name:"ub" () in
    Dif.stack_connect ~lower_a:la ~lower_b:lb ~upper_a:ua ~upper_b:ub ();
    Dif.run_until_converged upper ~max_time:30. ();
    let send, got = open_counted_flow engine ua ub in
    (engine, send, got)
  in
  let copies = copies_per_sdu build in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f payload copies per SDU, at most 4.5" copies)
    true (copies <= 4.5)

(* An enrolled neighbour sends a Dtp PDU with a valid CRC and an empty
   payload on an open flow.  The user-data field is too short to hold a
   delimiting header, so the reassembler drops it; it must not raise
   out of the channel that delivered the frame. *)
let test_empty_dtp_payload_dropped () =
  let engine = Engine.create () in
  let dif = Dif.create engine "pair" in
  let a = Dif.add_member dif ~name:"a" () in
  let b = Dif.add_member dif ~name:"b" () in
  let ca, cb = Chan.pair () in
  Dif.connect dif a b (ca, cb);
  Dif.run_until_converged dif ();
  let _send, got = open_counted_flow engine a b in
  let cep_of m =
    match Ipcp.flow_stats m with
    | [ (cep, _, _) ] -> cep
    | _ -> Alcotest.fail "expected one open flow"
  in
  let frame =
    Pdu.encode_frame
      (Pdu.make ~pdu_type:Pdu.Dtp ~dst_addr:(Ipcp.address b) ~src_addr:(Ipcp.address a)
         ~dst_cep:(cep_of b) ~src_cep:(cep_of a) ~seq:1 Bytes.empty)
  in
  ca.Chan.send frame;
  wait engine 1.;
  check Alcotest.int "nothing delivered" 0 !got

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

(* ---------- management-plane robustness ---------- *)

(* A new process wired to [via], which admits it. *)
let add_joiner net via =
  let joiner = Dif.add_member net.Topo.dif ~name:"joiner" () in
  let l =
    Link.create net.Topo.engine (Rina_util.Prng.create 9) ~bit_rate:10_000_000.
      ~delay:0.002 ()
  in
  Dif.connect net.Topo.dif via joiner (Link.endpoint_a l, Link.endpoint_b l);
  joiner

(* Two members whose namespace manager (node 0) has crashed while node
   1 admits a joiner: node 1's address request (invoke id 1) is still
   pending, and node 0's end of the old wire is free to inject on. *)
let pending_grant_net () =
  let net = Topo.line ~seed:3 ~n:2 () in
  wait net.Topo.engine 10.;
  Ipcp.crash net.Topo.nodes.(0);
  let joiner = add_joiner net net.Topo.nodes.(1) in
  wait net.Topo.engine 1.2;
  (net, joiner)

(* A management frame: neighbour-scope unless [dst] routes it. *)
let mgmt_frame ?(dst = Types.no_address) msg =
  Pdu.encode_frame
    (Pdu.make ~pdu_type:Pdu.Mgmt ~dst_addr:dst ~src_addr:0 (Riep.encode msg))

(* One management frame from node 0's end of the old wire. *)
let inject net ?dst msg =
  (Link.endpoint_a net.Topo.links.(0)).Chan.send (mgmt_frame ?dst msg)

let test_out_of_range_grant_denied () =
  (* Node 1's port to the crashed node 0 still has an authenticated
     peer, so a routed reply from its end of the wire passes the ingress
     filter.  A grant outside the 32-bit address space must deny the
     joiner, as any failed allocation does, not abort the simulation. *)
  let net, joiner = pending_grant_net () in
  let member = net.Topo.nodes.(1) in
  let denied () = Metrics.get (Ipcp.metrics member) "enroll_denied" in
  let before = denied () in
  inject net ~dst:(Ipcp.address member)
    (Riep.make ~opcode:Riep.M_read_r ~obj_class:"addr-alloc" ~invoke_id:1
       ~obj_value:(Rib.V_int (1 lsl 40)) ());
  wait net.Topo.engine 0.5;
  check Alcotest.int "joiner denied" (before + 1) (denied ());
  Alcotest.(check bool) "joiner not enrolled" false (Ipcp.is_enrolled joiner)

let test_unrouted_grant_dropped () =
  (* Neighbour-scope frames pass the ingress filter from any port, but
     address grants are always routed: a neighbour-scope answer to the
     pending request is a forgery and must not enrol the joiner. *)
  let net, joiner = pending_grant_net () in
  let member = net.Topo.nodes.(1) in
  inject net
    (Riep.make ~opcode:Riep.M_read_r ~obj_class:"addr-alloc" ~invoke_id:1
       ~obj_value:(Rib.V_int 7) ());
  wait net.Topo.engine 0.5;
  Alcotest.(check bool) "joiner not enrolled" false (Ipcp.is_enrolled joiner);
  check Alcotest.int "forgery counted" 1
    (Metrics.get (Ipcp.metrics member) "unrouted_alloc_dropped")

(* A successful flow response: the responder's cep. *)
let cep_reply cep =
  let w = Rina_util.Codec.Writer.create () in
  Rina_util.Codec.Writer.u32 w cep;
  Rib.V_bytes (Rina_util.Codec.Writer.contents w)

let test_reply_class_must_match () =
  (* Address grants and flow set-ups wait in one table, keyed by one
     invoke-id counter.  A routed reply of the other class under a
     pending request's invoke id must leave that request pending. *)
  let net, joiner = pending_grant_net () in
  let member = net.Topo.nodes.(1) in
  inject net ~dst:(Ipcp.address member)
    (Riep.make ~opcode:Riep.M_create_r ~obj_class:"flow" ~invoke_id:1
       ~obj_value:(cep_reply 5) ());
  wait net.Topo.engine 0.01;
  check Alcotest.int "flow reply ignored" 0
    (Metrics.get (Ipcp.metrics member) "enroll_denied");
  inject net ~dst:(Ipcp.address member)
    (Riep.make ~opcode:Riep.M_read_r ~obj_class:"addr-alloc" ~invoke_id:1
       ~obj_value:(Rib.V_int 7) ());
  wait net.Topo.engine 0.5;
  check Alcotest.int "grant still pending" 7 (Ipcp.address joiner);
  (* The manager's first request is the flow set-up; its destination
     has crashed, so the request waits for a reply. *)
  let net = Topo.line ~seed:3 ~n:2 () in
  let engine = net.Topo.engine and requester = net.Topo.nodes.(0) in
  Ipcp.register_app net.Topo.nodes.(1) (Types.apn "svc") ~on_flow:ignore;
  wait engine 10.;
  Ipcp.crash net.Topo.nodes.(1);
  let result = ref None in
  Ipcp.allocate_flow requester ~src:(Types.apn "client") ~dst:(Types.apn "svc") ~qos_id:1
    ~on_result:(fun r -> result := Some r);
  let reply msg =
    (Link.endpoint_b net.Topo.links.(0)).Chan.send
      (mgmt_frame ~dst:(Ipcp.address requester) msg);
    wait engine 0.1
  in
  reply
    (Riep.make ~opcode:Riep.M_read_r ~obj_class:"addr-alloc" ~invoke_id:1
       ~obj_value:(Rib.V_int 7) ());
  Alcotest.(check bool) "grant reply ignored" true (Option.is_none !result);
  reply
    (Riep.make ~opcode:Riep.M_create_r ~obj_class:"flow" ~invoke_id:1
       ~obj_value:(cep_reply 5) ());
  match !result with
  | Some (Ok flow) ->
    check Alcotest.string "flow still pending" "svc/1"
      (Types.apn_to_string flow.Ipcp.remote_app)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "flow reply ignored"

(* The namespace manager keeps its next free address at
   /dif/next_free.  One forged neighbour-scope write or delete of it,
   on a fresh wire into the manager, must not change the address the
   next joiner gets: node 1 holds 2, so the joiner gets 3. *)
let test_forged_next_free msg () =
  let net = Topo.line ~seed:3 ~n:2 () in
  let engine = net.Topo.engine and manager = net.Topo.nodes.(0) in
  wait engine 10.;
  let l =
    Link.create engine (Rina_util.Prng.create 13) ~bit_rate:1_000_000. ~delay:0.001 ()
  in
  ignore (Ipcp.bind_port manager (Link.endpoint_b l));
  (Link.endpoint_a l).Chan.send (mgmt_frame msg);
  wait engine 1.;
  let joiner = add_joiner net manager in
  wait engine 5.;
  Alcotest.(check bool) "joiner enrolled" true (Ipcp.is_enrolled joiner);
  check Alcotest.int "fresh address" 3 (Ipcp.address joiner);
  check Alcotest.int "forgery refused" 1
    (Metrics.get (Ipcp.metrics manager) "mgmt_unhandled")

let write_next_free n =
  Riep.make ~opcode:Riep.M_write ~obj_class:"rib" ~obj_name:"/dif/next_free"
    ~obj_value:(Rib.V_int n) ()

let test_stranger_cannot_close_flow () =
  (* A fresh wire to node 1 whose far end never says hello: its
     neighbour-scope flow deletions pass the ingress filter, and must not
     close node 1's end of a live flow. *)
  let net = Topo.line ~seed:3 ~n:2 () in
  let engine = net.Topo.engine and member = net.Topo.nodes.(1) in
  let sink = Workload.sink () in
  match Scenario.open_flow net ~src:0 ~dst:1 ~qos_id:1 ~sink () with
  | Error e -> Alcotest.fail e
  | Ok (flow, _) ->
    flow.Ipcp.send (Bytes.make 100 'a');
    wait engine 1.;
    check Alcotest.int "first SDU" 1 sink.Workload.count;
    let l =
      Link.create engine (Rina_util.Prng.create 13) ~bit_rate:1_000_000. ~delay:0.001 ()
    in
    ignore (Ipcp.bind_port member (Link.endpoint_b l));
    List.iter
      (fun (cep, _, _) ->
        (Link.endpoint_a l).Chan.send
          (mgmt_frame
             (Riep.make ~opcode:Riep.M_delete ~obj_class:"flow"
                ~obj_value:(Rib.V_int cep) ())))
      (Ipcp.flow_stats member);
    wait engine 1.;
    for _ = 1 to 5 do
      flow.Ipcp.send (Bytes.make 100 'b')
    done;
    wait engine 2.;
    check Alcotest.int "every SDU" 6 sink.Workload.count

let test_negative_cost_lsa_rejected () =
  (* Dijkstra assumes non-negative weights: an LSA whose edge costs -10
     would pull routes through it.  A stranger's neighbour-scope LSA
     write passes the ingress filter, so the decoder must refuse it, and
     a port cannot be bound at such a cost either. *)
  let net = Topo.line ~seed:3 ~n:3 () in
  let engine = net.Topo.engine and member = net.Topo.nodes.(1) in
  wait engine 10.;
  let l =
    Link.create engine (Rina_util.Prng.create 13) ~bit_rate:1_000_000. ~delay:0.001 ()
  in
  ignore (Ipcp.bind_port member (Link.endpoint_b l));
  let stored = Ipcp.lsdb_size member in
  let forged =
    { Routing.Lsa.origin = 99; seq = 1; neighbors = [ (Ipcp.address member, -10.) ] }
  in
  (Link.endpoint_a l).Chan.send
    (mgmt_frame
       (Riep.make ~opcode:Riep.M_write ~obj_class:"lsa" ~obj_name:"99"
          ~obj_value:(Rib.V_bytes (Routing.Lsa.encode forged)) ()));
  wait engine 1.;
  check Alcotest.int "counted" 1 (Metrics.get (Ipcp.metrics member) "bad_lsa");
  check Alcotest.int "not installed" stored (Ipcp.lsdb_size member);
  List.iter
    (fun cost ->
      Alcotest.check_raises (Printf.sprintf "port cost %g" cost)
        (Invalid_argument "Ipcp.bind_port: cost must be finite and non-negative")
        (fun () -> ignore (Ipcp.bind_port member ~cost (Link.endpoint_b l))))
    [ -1.; Float.nan ]

(* Every (opcode, class) pair the dispatcher handles, plus one it does
   not. *)
let dispatched =
  Riep.
    [
      (M_connect, "enrollment"); (M_connect_r, "enrollment"); (M_write, "rib");
      (M_delete, "rib"); (M_write, "lsa"); (M_delete, "lsa"); (M_read, "keepalive");
      (M_read_r, "keepalive"); (M_read, "path-probe"); (M_read_r, "path-probe");
      (M_read, "addr-alloc"); (M_read_r, "addr-alloc"); (M_create, "flow");
      (M_create_r, "flow"); (M_delete, "flow"); (M_write, "no-such-class");
    ]

let gen_mgmt_msg =
  let open QCheck.Gen in
  let value =
    oneof
      [
        return None;
        map
          (fun n -> Some (Rib.V_int n))
          (oneofl [ -1; 0; 1; 2; 3; 4; 1 lsl 40; max_int ]);
        map (fun s -> Some (Rib.V_str s)) (string_size ~gen:printable (int_bound 6));
        map (fun s -> Some (Rib.V_bytes (Bytes.of_string s))) (string_size (int_bound 24));
        map (fun b -> Some (Rib.V_bool b)) bool;
        map (fun f -> Some (Rib.V_float f)) float;
      ]
  in
  let* opcode, obj_class = oneofl dispatched in
  let* obj_name = oneofl [ "/dir/svc/1"; "7"; "joiner/1"; "/dif/next_free" ] in
  let* invoke_id = int_range 0 3 in
  let* result = int_range 0 4 in
  let* version = int_range 0 2 in
  let* origin = int_range 0 2 in
  let* obj_value = value in
  let+ routed = bool in
  ( routed,
    Riep.make ~opcode ~obj_class ~obj_name ?obj_value ~invoke_id ~result ~version
      ~origin () )

let prop_mgmt_never_raises =
  let print msgs =
    String.concat "\n"
      (List.map
         (fun (routed, m) ->
           Format.asprintf "%s %a %a"
             (if routed then "routed" else "neighbour")
             Riep.pp m
             (Format.pp_print_option Rib.pp_value)
             m.Riep.obj_value)
         msgs)
  in
  QCheck.Test.make ~name:"no management message raises" ~count:300
    (QCheck.make ~print (QCheck.Gen.list_repeat 80 gen_mgmt_msg))
    (fun msgs ->
      let barrage net ~from member =
        List.iter
          (fun (routed, msg) ->
            from.Chan.send
              (mgmt_frame ?dst:(if routed then Some (Ipcp.address member) else None) msg);
            wait net.Topo.engine 0.01)
          msgs
      in
      (* A member with a pending address grant and a pending flow. *)
      let net, _ = pending_grant_net () in
      let member = net.Topo.nodes.(1) in
      Ipcp.allocate_flow member ~src:(Types.apn "client") ~dst:(Types.apn "svc")
        ~qos_id:1 ~on_result:ignore;
      barrage net ~from:(Link.endpoint_a net.Topo.links.(0)) member;
      wait net.Topo.engine 2.;
      (* A live namespace manager, which then admits a joiner. *)
      let net = Topo.line ~seed:3 ~n:2 () in
      wait net.Topo.engine 10.;
      let manager = net.Topo.nodes.(0) in
      barrage net ~from:(Link.endpoint_b net.Topo.links.(0)) manager;
      ignore (add_joiner net manager : Ipcp.t);
      wait net.Topo.engine 3.;
      true)

(* The management plane's counters, summed over every member after a
   script that exercises enrollment through a non-manager, directory
   publication, flow allocation, anti-entropy, crash, restart and
   departure.  A refactor of the management plane must leave every
   total unchanged; a change of behaviour updates them on purpose. *)
let test_mgmt_counters_pinned () =
  let policy =
    {
      Policy.default with
      Policy.routing =
        { Policy.default.Policy.routing with Policy.anti_entropy_interval = 2.0 };
    }
  in
  let net = Topo.line ~seed:4 ~policy ~n:4 () in
  let engine = net.Topo.engine and nodes = net.Topo.nodes in
  wait engine 10.;
  let delivered = ref 0 in
  Ipcp.register_app nodes.(3) (Types.apn "svc") ~on_flow:(fun f ->
      f.Ipcp.set_on_receive (fun _ -> incr delivered));
  wait engine 3.;
  let joiner = Dif.add_member net.Topo.dif ~name:"joiner" () in
  let l =
    Link.create engine (Rina_util.Prng.create 9) ~bit_rate:10_000_000. ~delay:0.002 ()
  in
  Dif.connect net.Topo.dif nodes.(2) joiner (Link.endpoint_a l, Link.endpoint_b l);
  wait engine 8.;
  Ipcp.allocate_flow nodes.(0) ~src:(Types.apn "client") ~dst:(Types.apn "svc") ~qos_id:1
    ~on_result:(function
      | Ok f ->
        for _ = 1 to 5 do
          f.Ipcp.send (Bytes.make 100 'm')
        done
      | Error e -> Alcotest.fail e);
  wait engine 3.;
  Ipcp.crash nodes.(1);
  wait engine 12.;
  Ipcp.restart nodes.(1);
  wait engine 12.;
  Ipcp.leave nodes.(3);
  wait engine 5.;
  check Alcotest.int "delivered" 5 !delivered;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun m ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace totals k
            (v + Option.value ~default:0 (Hashtbl.find_opt totals k)))
        (Metrics.to_list (Ipcp.metrics m)))
    (Dif.members net.Topo.dif);
  let got = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []) in
  check
    Alcotest.(list (pair string int))
    "totals"
    [
      ("addr_granted", 3); ("alloc_requests", 1); ("anti_entropy_runs", 124);
      ("crashes", 1); ("dir_tx", 97); ("enroll_accepted", 5); ("enroll_retries", 2);
      ("enroll_timeout", 2); ("enrolled", 5); ("flows_accepted", 1);
      ("flows_allocated", 1); ("grant_timeout", 2); ("keepalive_miss", 4);
      ("keepalive_tx", 377); ("left_dif", 1); ("lsa_rx_new", 204); ("lsa_tx", 788);
      ("lsa_withdraw_tx", 2); ("lsa_withdrawn", 4); ("mgmt_rx", 1594);
      ("mgmt_tx", 1654); ("peer_declared_dead", 2); ("restarts", 1);
      ("rib_dup_rejected", 89); ("spf_runs", 220);
    ]
    got

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
          Alcotest.test_case "sticky point of attachment" `Quick
            test_sticky_point_of_attachment;
        ] );
      ("recursion", [ Alcotest.test_case "stacked transfer" `Quick test_stacked_dif_transfer ]);
      ( "payload copies",
        [
          Alcotest.test_case "relay line" `Quick test_payload_copies_relay_line;
          Alcotest.test_case "two ranks" `Quick test_payload_copies_two_ranks;
        ] );
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
          Alcotest.test_case "management counters pinned" `Quick test_mgmt_counters_pinned;
        ] );
      ( "security",
        [
          Alcotest.test_case "injection dropped" `Quick test_unauthenticated_injection_dropped;
          Alcotest.test_case "empty dtp payload dropped" `Quick test_empty_dtp_payload_dropped;
          Alcotest.test_case "declarative policy drives DIF" `Quick test_policy_language_drives_dif;
          Alcotest.test_case "custom qos cubes" `Quick test_custom_qos_cubes;
          Alcotest.test_case "out-of-range grant denied" `Quick test_out_of_range_grant_denied;
          Alcotest.test_case "unrouted grant dropped" `Quick test_unrouted_grant_dropped;
          Alcotest.test_case "reply class must match" `Quick test_reply_class_must_match;
          Alcotest.test_case "forged next_free 2^32" `Quick
            (test_forged_next_free (write_next_free (1 lsl 32)));
          Alcotest.test_case "forged next_free 0" `Quick
            (test_forged_next_free (write_next_free 0));
          Alcotest.test_case "forged next_free delete" `Quick
            (test_forged_next_free
               (Riep.make ~opcode:Riep.M_delete ~obj_class:"rib"
                  ~obj_name:"/dif/next_free" ()));
          Alcotest.test_case "stranger cannot close a flow" `Quick
            test_stranger_cannot_close_flow;
          QCheck_alcotest.to_alcotest prop_mgmt_never_raises;
          Alcotest.test_case "negative-cost lsa rejected" `Quick
            test_negative_cost_lsa_rejected;
        ] );
    ]
