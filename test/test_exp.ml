(* Tests for the experiment-harness library (rina_exp): workload
   stamping/accounting and the topology builders the benchmarks rely
   on. *)

module Engine = Rina_sim.Engine
module Topo = Rina_exp.Topo
module Workload = Rina_exp.Workload
module Scenario = Rina_exp.Scenario
module Ipcp = Rina_core.Ipcp

let check = Alcotest.check

(* ---------- Workload ---------- *)

let test_stamp_roundtrip () =
  let sdu = Workload.stamp ~now:12.5 ~seq:42 ~size:100 in
  check Alcotest.int "padded to size" 100 (Bytes.length sdu);
  (match Workload.read_stamp sdu with
   | Some (t, seq) ->
     check (Alcotest.float 1e-9) "time" 12.5 t;
     check Alcotest.int "seq" 42 seq
   | None -> Alcotest.fail "stamp unreadable");
  (* Minimum size enforced. *)
  check Alcotest.int "minimum 16" 16 (Bytes.length (Workload.stamp ~now:0. ~seq:0 ~size:1));
  (* Foreign bytes are not mistaken for stamps. *)
  Alcotest.(check bool) "garbage rejected" true
    (Workload.read_stamp (Bytes.make 40 'z') = None)

let test_sink_accounting () =
  let s = Workload.sink () in
  Workload.on_sdu s ~now:1.0 (Workload.stamp ~now:0.9 ~seq:0 ~size:500);
  Workload.on_sdu s ~now:2.0 (Workload.stamp ~now:1.8 ~seq:3 ~size:500);
  check Alcotest.int "count" 2 s.Workload.count;
  check Alcotest.int "bytes" 1000 s.Workload.bytes;
  check Alcotest.int "max seq" 3 s.Workload.seen_max_seq;
  check (Alcotest.float 1e-9) "last arrival" 2.0 s.Workload.last_arrival;
  check (Alcotest.float 1e-6) "goodput over 1s window" 8000.
    (Workload.goodput s ~t0:1.0 ~t1:2.0);
  check (Alcotest.float 1e-9) "latency median" 0.15
    (Rina_util.Stats.median s.Workload.received)

let test_cbr_rate () =
  let engine = Engine.create () in
  let sent = ref 0 in
  (* 1 Mb/s of 1000-byte SDUs = 125 SDUs/s; over 2 s expect ~250. *)
  Workload.cbr engine ~send:(fun _ -> incr sent) ~rate:1_000_000. ~size:1000
    ~until:2.0 ();
  Engine.run ~until:3.0 engine;
  Alcotest.(check bool) "~250 sdus" true (!sent >= 248 && !sent <= 252)

let test_poisson_on_off_sends_something () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 33 in
  let sent = ref 0 in
  Workload.poisson_on_off engine rng ~send:(fun _ -> incr sent)
    ~peak_rate:1_000_000. ~mean_on:0.1 ~mean_off:0.1 ~size:500 ~until:5.0 ();
  Engine.run ~until:6.0 engine;
  (* ~50% duty cycle at 250 SDU/s peak over 5 s: several hundred. *)
  Alcotest.(check bool) "bursty but nonzero" true (!sent > 100 && !sent < 1250)

(* ---------- Topo ---------- *)

let test_line_converges () =
  let net = Topo.line ~n:5 () in
  check Alcotest.int "nodes" 5 (Array.length net.Topo.nodes);
  check Alcotest.int "links" 4 (Array.length net.Topo.links);
  Array.iter
    (fun m ->
      Alcotest.(check bool) "enrolled" true (Ipcp.is_enrolled m);
      check Alcotest.int "full lsdb" 5 (Ipcp.lsdb_size m))
    net.Topo.nodes

let test_line_rejects_tiny () =
  Alcotest.check_raises "n=1" (Invalid_argument "Topo.line: need at least 2 nodes")
    (fun () -> ignore (Topo.line ~n:1 ()))

let test_star_converges () =
  let net = Topo.star ~leaves:5 () in
  check Alcotest.int "nodes" 6 (Array.length net.Topo.nodes);
  (* Hub sees all leaves as neighbours. *)
  check Alcotest.int "hub degree" 5 (List.length (Ipcp.neighbors net.Topo.nodes.(0)))

let test_random_graph_connected () =
  let net = Topo.random_graph ~n:12 ~degree:3 () in
  Array.iter
    (fun m ->
      Alcotest.(check bool) "enrolled" true (Ipcp.is_enrolled m);
      (* Connected: everyone routes to everyone. *)
      check Alcotest.int "full routing table" 11 (List.length (Ipcp.routing_table m)))
    net.Topo.nodes

let test_ip_line_builds () =
  let net = Topo.ip_line ~routers:2 () in
  check Alcotest.int "hosts" 2 (Array.length net.Topo.hosts);
  check Alcotest.int "routers" 2 (Array.length net.Topo.routers);
  (* DV converged: each router knows every one of the 3 subnets. *)
  Array.iter
    (fun r ->
      Alcotest.(check bool) "table covers subnets" true (Tcpip.Node.table_size r >= 3))
    net.Topo.routers

let test_link_dif_members () =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create 3 in
  let link = Rina_sim.Link.create engine rng ~bit_rate:10_000_000. ~delay:0.002 () in
  let a, b = Topo.link_dif engine ~policy:Rina_core.Policy.default "wire" link in
  check Alcotest.string "first member" "wire-a" (Ipcp.name a).Rina_core.Types.ap_name;
  check Alcotest.string "second member" "wire-b" (Ipcp.name b).Rina_core.Types.ap_name;
  Alcotest.(check bool) "both enrolled" true (Ipcp.is_enrolled a && Ipcp.is_enrolled b);
  check Alcotest.(list int) "adjacent over the one wire" [ Ipcp.address b ]
    (List.map fst (Ipcp.neighbors a))

(* ---------- Scenario ---------- *)

let test_drive_until () =
  let engine = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule engine ~delay:1.02 (fun () -> fired := true));
  let tests = ref 0 in
  Scenario.drive_until engine ~step:0.25 ~timeout:10. (fun () ->
      incr tests;
      !fired);
  check (Alcotest.float 0.) "first 0.25 s step past the event" 1.25 (Engine.now engine);
  check Alcotest.int "tested before every step" 6 !tests;
  Scenario.drive_until engine ~timeout:10. (fun () -> true);
  check (Alcotest.float 0.) "a condition that holds runs nothing" 1.25
    (Engine.now engine);
  let tests = ref 0 in
  Scenario.drive_until engine ~timeout:2. (fun () ->
      incr tests;
      false);
  let now = Engine.now engine in
  Alcotest.(check bool)
    (Printf.sprintf "stops at the timeout (%g)" now)
    true
    (now >= 3.25 && now < 3.3);
  Alcotest.(check bool)
    (Printf.sprintf "0.05 s steps by default (%d tests)" !tests)
    true
    (!tests >= 40 && !tests <= 42)

let test_connect_registered () =
  let net = Topo.line ~n:3 () in
  let engine = net.Topo.engine in
  let got = ref 0 in
  match
    Scenario.connect engine
      ~src:(net.Topo.nodes.(0), Rina_core.Types.apn "alice")
      ~dst:(net.Topo.nodes.(2), Rina_core.Types.apn "bob")
      ~qos_id:1
      ~on_flow:(fun flow -> flow.Ipcp.set_on_receive (fun _ -> incr got))
  with
  | Error e -> Alcotest.fail e
  | Ok flow ->
    flow.Ipcp.send (Bytes.of_string "hello");
    Topo.wait engine 1.;
    check Alcotest.int "destination's on_flow receives" 1 !got;
    Alcotest.(check bool) "both apps registered" true
      (Ipcp.registered_apps net.Topo.nodes.(0) = [ Rina_core.Types.apn "alice" ]
      && Ipcp.registered_apps net.Topo.nodes.(2) = [ Rina_core.Types.apn "bob" ])

let test_connect_unregistered () =
  let net = Topo.line ~n:3 () in
  let engine = net.Topo.engine in
  (* a member that never enrolls never publishes the name *)
  let offline = Rina_core.Dif.add_member net.Topo.dif ~name:"offline" () in
  let t0 = Engine.now engine in
  match
    Scenario.connect engine
      ~src:(net.Topo.nodes.(0), Rina_core.Types.apn "alice")
      ~dst:(offline, Rina_core.Types.apn "ghost")
      ~qos_id:1 ~on_flow:ignore
  with
  | Ok _ -> Alcotest.fail "allocated to an unpublished name"
  | Error e ->
    Alcotest.(check bool) ("name not found: " ^ e) true
      (String.starts_with ~prefix:"destination name not found" e);
    Alcotest.(check bool) "within 30 s of virtual time" true
      (Engine.now engine -. t0 < 30.)

let test_scenario_open_flow_and_metrics () =
  let net = Topo.line ~n:3 () in
  let sink = Workload.sink () in
  (match Scenario.open_flow net ~src:0 ~dst:2 ~qos_id:0 ~sink () with
   | Error e -> Alcotest.fail e
   | Ok (flow, _) ->
     flow.Ipcp.send (Workload.stamp ~now:(Engine.now net.Topo.engine) ~seq:0 ~size:64);
     Topo.wait net.Topo.engine 2.;
     check Alcotest.int "sink saw it" 1 sink.Workload.count);
  Alcotest.(check bool) "summed metric nonzero" true (Scenario.sum_metric net "mgmt_tx" > 0);
  Alcotest.(check bool) "summed rmt metric nonzero" true
    (Scenario.sum_rmt_metric net "sent" > 0)

let test_random_plan_replays_identically () =
  let build () =
    let net = Topo.line ~seed:5 ~n:4 () in
    let rng = Rina_util.Prng.create 77 in
    Scenario.random_plan net ~rng ~horizon:30. ~faults:8 ()
  in
  let a = Rina_sim.Fault.events (build ()) in
  let b = Rina_sim.Fault.events (build ()) in
  check
    Alcotest.(list (pair (float 1e-9) string))
    "same seed, same topology: identical schedule" a b;
  Alcotest.(check bool) "eight faults compiled" true (List.length a >= 8);
  (* node 0 is the address allocator and protected by default *)
  List.iter
    (fun (_, tag) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s never crashes node 0" tag)
        false
        (String.length tag > 3
        && String.sub tag (String.length tag - 3) 3 = "-n0"))
    a

let test_straddling_links_on_line () =
  let net = Topo.line ~n:3 () in
  (match Scenario.straddling_links net ~group:[ 0 ] with
  | [ l ] -> Alcotest.(check bool) "cut {0}|{1,2}" true (l == net.Topo.links.(0))
  | ls -> Alcotest.failf "expected one straddling link, got %d" (List.length ls));
  (match Scenario.straddling_links net ~group:[ 0; 1 ] with
  | [ l ] -> Alcotest.(check bool) "cut {0,1}|{2}" true (l == net.Topo.links.(1))
  | ls -> Alcotest.failf "expected one straddling link, got %d" (List.length ls));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Scenario.straddling_links: node index out of range")
    (fun () -> ignore (Scenario.straddling_links net ~group:[ 9 ]))

(* ---------- Par ---------- *)

module Par = Rina_exp.Par
module Fault = Rina_sim.Fault

(* One self-contained chaos trial: seed-derived topology, two random
   faults armed, CBR traffic relayed over a 3-node line, summarised as
   a JSON line whose fields include metrics merged across the whole
   network.  Each invocation builds a private engine/PRNG/metrics, so
   it is safe to run from any domain. *)
let par_trial seed =
  let net = Topo.line ~seed ~n:3 () in
  let engine = net.Topo.engine in
  let sink = Workload.sink () in
  match Scenario.open_flow net ~src:0 ~dst:2 ~qos_id:1 ~sink () with
  | Error e -> Printf.sprintf "{\"seed\": %d, \"error\": %S}" seed e
  | Ok (flow, _) ->
    let t0 = Engine.now engine in
    let rng = Rina_util.Prng.create (seed lxor 0x5DEECE66) in
    let plan = Scenario.random_plan net ~rng ~horizon:6.0 ~faults:2 () in
    Fault.arm plan engine;
    Workload.cbr engine ~send:flow.Ipcp.send ~rate:1_000_000. ~size:500
      ~until:(t0 +. 5.) ();
    Engine.run ~until:(t0 +. 7.) engine;
    Printf.sprintf
      "{\"seed\": %d, \"delivered\": %d, \"relayed\": %d, \"flow_errors\": %d, \
       \"faults\": %d}"
      seed sink.Workload.count
      (Scenario.sum_rmt_metric net "relayed")
      (Scenario.sum_metric net "flow_errors")
      (List.length (Fault.events plan))

let test_par_identical_to_sequential () =
  let seeds = [| 300; 301; 302 |] in
  let seq = Par.map ~domains:1 par_trial seeds in
  let par = Par.map ~domains:4 par_trial seeds in
  check Alcotest.(array string) "parallel byte-identical to sequential" seq par;
  (* The trials actually exercised the stack: traffic was delivered and
     every summary line carries the armed fault count. *)
  Array.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "trial ran to completion: %s" line)
        true
        (String.length line > 0 && String.sub line 0 9 = "{\"seed\": "))
    seq;
  let contains_error line =
    let needle = "\"error\"" in
    let n = String.length needle and l = String.length line in
    let rec scan i = i + n <= l && (String.sub line i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "no flow-allocation failures" false
    (Array.exists contains_error seq)

(* One observability trial: a relayed CBR run with a 5%-sampled trace
   attached and the trial's telemetry shard tapping every event.
   Returns the kept trace as one JSONL string.  The sampling hash, the
   engine clock and the workload are all seed-deterministic, so the
   string must be byte-identical no matter which domain ran the
   trial. *)
let sampled_trial tele seed =
  let net = Topo.line ~seed ~n:3 () in
  let engine = net.Topo.engine in
  let tr = Rina_sim.Trace.create engine in
  Rina_sim.Trace.attach ~sample_rate:0.05 ~telemetry:tele tr;
  let sink = Workload.sink () in
  (match Scenario.open_flow net ~src:0 ~dst:2 ~qos_id:1 ~sink () with
  | Error e -> Alcotest.fail e
  | Ok (flow, _) ->
    let t0 = Engine.now engine in
    Workload.cbr engine ~send:flow.Ipcp.send ~rate:400_000. ~size:400
      ~until:(t0 +. 2.) ();
    Engine.run ~until:(t0 +. 3.) engine);
  Rina_sim.Trace.close tr;
  String.concat "\n"
    (List.map Rina_util.Flight.event_to_json (Rina_sim.Trace.typed_events tr))

let test_sampled_telemetry_par_deterministic () =
  let items = [| 900; 901; 902; 903 |] in
  let run domains =
    let traces, tele = Par.map_telemetry ~domains sampled_trial items in
    (traces, tele)
  in
  let t1, tele1 = run 1 in
  let t4, tele4 = run 4 in
  check
    Alcotest.(array string)
    "sampled traces byte-identical, 1 vs 4 domains" t1 t4;
  check Alcotest.string "merged telemetry byte-identical, 1 vs 4 domains"
    (Rina_util.Telemetry.to_jsonl tele1)
    (Rina_util.Telemetry.to_jsonl tele4);
  (* The trials really traced something, and the exact tally kept
     counting events the 5% sampler shed from the trace. *)
  Array.iter
    (fun s ->
      Alcotest.(check bool) "sampled trace non-empty" true (String.length s > 0))
    t1;
  let kept =
    Array.fold_left
      (fun acc s ->
        String.fold_left (fun n c -> if c = '\n' then n + 1 else n) (acc + 1) s)
      0 t1
  in
  let tallied = Rina_util.Telemetry.counter tele1 "events" in
  Alcotest.(check bool)
    (Printf.sprintf "tally (%d) exceeds kept trace events (%d)" tallied kept)
    true
    (tallied > kept)

(* Items 5 and 11 raise different exceptions.  Item 5 waits (bounded)
   until item 11 has raised, so the later item fails first in wall-clock
   time: only an input-order choice surfaces item 5's exception. *)
let test_par_first_failure_in_input_order () =
  let ran = Array.make 16 false in
  let eleven_raised = Atomic.make false in
  let f i =
    ran.(i) <- true;
    if i = 5 then begin
      let spins = ref 0 in
      while (not (Atomic.get eleven_raised)) && !spins < 10_000_000 do
        Domain.cpu_relax ();
        incr spins
      done;
      failwith "item 5"
    end;
    if i = 11 then begin
      Atomic.set eleven_raised true;
      invalid_arg "item 11"
    end;
    i
  in
  (match Par.map ~domains:4 f (Array.init 16 Fun.id) with
   | _ -> Alcotest.fail "Par.map returned despite two failing items"
   | exception Failure m -> check Alcotest.string "item 5's exception" "item 5" m
   | exception e ->
     Alcotest.failf "expected item 5's Failure, got %s" (Printexc.to_string e));
  Array.iteri
    (fun i r -> Alcotest.(check bool) (Printf.sprintf "item %d ran" i) true r)
    ran

let () =
  Alcotest.run "rina_exp"
    [
      ( "workload",
        [
          Alcotest.test_case "stamp roundtrip" `Quick test_stamp_roundtrip;
          Alcotest.test_case "sink accounting" `Quick test_sink_accounting;
          Alcotest.test_case "cbr rate" `Quick test_cbr_rate;
          Alcotest.test_case "poisson on/off" `Quick test_poisson_on_off_sends_something;
        ] );
      ( "topo",
        [
          Alcotest.test_case "line converges" `Quick test_line_converges;
          Alcotest.test_case "line rejects n=1" `Quick test_line_rejects_tiny;
          Alcotest.test_case "star converges" `Quick test_star_converges;
          Alcotest.test_case "random graph connected" `Quick test_random_graph_connected;
          Alcotest.test_case "ip line builds" `Quick test_ip_line_builds;
          Alcotest.test_case "link dif members" `Quick test_link_dif_members;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "open flow + metrics" `Quick test_scenario_open_flow_and_metrics;
          Alcotest.test_case "random plan replays" `Quick
            test_random_plan_replays_identically;
          Alcotest.test_case "straddling links" `Quick
            test_straddling_links_on_line;
          Alcotest.test_case "drive until" `Quick test_drive_until;
          Alcotest.test_case "connect registered apps" `Quick test_connect_registered;
          Alcotest.test_case "connect unregistered name" `Quick test_connect_unregistered;
        ] );
      ( "par",
        [
          Alcotest.test_case "parallel = sequential (faults armed)" `Quick
            test_par_identical_to_sequential;
          Alcotest.test_case "sampled traces + merged telemetry deterministic"
            `Quick test_sampled_telemetry_par_deterministic;
          Alcotest.test_case "first failure in input order" `Quick
            test_par_first_failure_in_input_order;
        ] );
    ]
