(* Diagnostics subsystem tests: the policy linter (every rule code
   exercised with a violating and a clean spec), duplicate-key
   detection in Policy_lang, the Prng-randomised to_string/parse
   round-trip, Engine.cancel / negative-delay edge cases, and the
   runtime sanitizer (clean runs are silent; injected violations are
   caught). *)

module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Loss = Rina_sim.Loss
module Chan = Rina_sim.Chan
module Policy = Rina_core.Policy
module Policy_lang = Rina_core.Policy_lang
module Efcp = Rina_core.Efcp
module Pdu = Rina_core.Pdu
module Routing = Rina_core.Routing
module Diag = Rina_check.Diag
module Lint = Rina_check.Lint
module Sanitizer = Rina_check.Sanitizer
module Prng = Rina_util.Prng
module Invariant = Rina_util.Invariant

let check = Alcotest.check

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

(* ---------- lint helpers ---------- *)

let codes ?topo spec = List.map (fun d -> d.Diag.code) (Lint.lint ?topo spec)

let fires ?topo code spec =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires on %S" code spec)
    true
    (List.mem code (codes ?topo spec))

let silent ?topo code spec =
  Alcotest.(check bool)
    (Printf.sprintf "%s silent on %S" code spec)
    false
    (List.mem code (codes ?topo spec))

let severity_of ?topo code spec =
  match List.find_opt (fun d -> d.Diag.code = code) (Lint.lint ?topo spec) with
  | Some d -> d.Diag.severity
  | None -> Alcotest.fail (code ^ " did not fire")

(* ---------- structural rules ---------- *)

let test_l001_unknown_section () =
  fires "L001" "[bogus]\n";
  silent "L001" "[efcp]\nwindow = 4\n"

let test_l002_unknown_key () =
  fires "L002" "[efcp]\nfoo = 1\n";
  fires "L002" "[dif]\nwindow = 4\n";  (* right key, wrong section *)
  silent "L002" "[efcp]\nwindow = 4\n"

let test_l003_duplicate_key () =
  fires "L003" "[efcp]\nwindow = 4\nwindow = 8\n";
  (* re-opening the section does not launder the duplicate *)
  fires "L003" "[efcp]\nwindow = 4\n[dif]\nmax_ttl = 9\n[efcp]\nwindow = 8\n";
  (* the same key name in different sections is fine *)
  silent "L003" "[scheduler]\nkind = fifo\n[auth]\nkind = none\n";
  silent "L003" "[efcp]\nwindow = 4\nmtu = 1000\n"

let test_l004_malformed_line () =
  fires "L004" "window = 4\n";  (* key outside any section *)
  fires "L004" "[efcp]\njust some words\n";
  silent "L004" "[efcp]\nwindow = 4  # comment\n";
  (* keys under an unknown section are covered by its L001, not
     misreported as "outside any section" *)
  silent "L004" "[bogus]\nfoo = 1\n";
  silent "L002" "[bogus]\nfoo = 1\n"

let test_l005_bad_value () =
  fires "L005" "[efcp]\nwindow = 0\n";
  fires "L005" "[efcp]\nwindow = minus-three\n";
  fires "L005" "[efcp]\nrtx = sometimes\n";
  fires "L005" "[efcp]\ninit_rto = -1\n";
  silent "L005" "[efcp]\nwindow = 4\nrtx = gbn\ninit_rto = 1.5\n"

(* The bounds the key table declares beyond a bare type are L005s too:
   trace_sample_rate in (0, 1], mark_probability in [0, 1]. *)
let test_l005_table_bounds () =
  List.iter (fires "L005")
    [
      "[telemetry]\ntrace_sample_rate = 0\n";
      "[telemetry]\ntrace_sample_rate = 1.5\n";
      "[telemetry]\ntrace_sample_rate = -0.1\n";
      "[congestion]\nmark_probability = 1.5\n";
      "[congestion]\nmark_probability = -0.5\n";
    ];
  List.iter (silent "L005")
    [
      "[telemetry]\ntrace_sample_rate = 0.01\n";
      "[telemetry]\ntrace_sample_rate = 1.0\n";
      "[congestion]\nmark_probability = 0\n";
      "[congestion]\nmark_probability = 1\n";
    ];
  (* L117 is retired: its whole check is this bound *)
  silent "L117" "[telemetry]\ntrace_sample_rate = 0\n"

(* Structural findings do not abort the scan: one bad line still lets
   every other rule run. *)
let test_lint_keeps_going () =
  let spec = "[bogus]\n[efcp]\nfoo = 1\nmin_rto = 2.0\ninit_rto = 0.5\n" in
  let cs = codes spec in
  List.iter
    (fun c -> Alcotest.(check bool) (c ^ " present") true (List.mem c cs))
    [ "L001"; "L002"; "L101" ]

(* ---------- cross-field consistency rules ---------- *)

let test_l101_rto_floor () =
  fires "L101" "[efcp]\nmin_rto = 2.0\ninit_rto = 0.5\n";
  (* conflict against the *default* init_rto (0.5) must also fire *)
  fires "L101" "[efcp]\nmin_rto = 2.0\n";
  silent "L101" "[efcp]\nmin_rto = 0.1\ninit_rto = 0.5\n";
  Alcotest.(check bool) "L101 is an error" true (severity_of "L101" "[efcp]\nmin_rto = 9\n" = Diag.Error)

let test_l102_rto_ceiling () =
  fires "L102" "[efcp]\ninit_rto = 20\n";
  silent "L102" "[efcp]\ninit_rto = 2\n"

let test_l103_ack_delay_vs_rto () =
  fires "L103" "[efcp]\nack_delay = 0.6\ninit_rto = 0.5\n";
  silent "L103" "[efcp]\nack_delay = 0.1\ninit_rto = 0.5\n";
  silent "L103" "[efcp]\nack_delay = 0\n"

let test_l104_quantum_without_drr () =
  fires "L104" "[scheduler]\nquantum = 3000\n";
  fires "L104" "[scheduler]\nkind = fifo\nquantum = 3000\n";
  silent "L104" "[scheduler]\nkind = drr\nquantum = 3000\n"

let test_l105_quantum_below_mtu () =
  fires "L105" "[scheduler]\nkind = drr\nquantum = 100\n";  (* default mtu 1400 *)
  fires "L105" "[efcp]\nmtu = 9000\n[scheduler]\nkind = drr\nquantum = 1500\n";
  silent "L105" "[scheduler]\nkind = drr\nquantum = 3000\n";
  silent "L105" "[efcp]\nmtu = 100\n[scheduler]\nkind = drr\nquantum = 100\n"

let test_l106_password_needs_secret () =
  fires "L106" "[auth]\nkind = password\n";
  silent "L106" "[auth]\nkind = password\nsecret = hunter2\n";
  silent "L106" "[auth]\nkind = none\n"

let test_l107_secret_without_password () =
  fires "L107" "[auth]\nsecret = hunter2\n";
  fires "L107" "[auth]\nkind = none\nsecret = hunter2\n";
  silent "L107" "[auth]\nkind = password\nsecret = hunter2\n"

let test_l108_dead_not_above_hello () =
  fires "L108" "[routing]\nhello_interval = 2.0\ndead_interval = 1.0\n";
  fires "L108" "[routing]\nhello_interval = 2.0\ndead_interval = 2.0\n";
  silent "L108" "[routing]\nhello_interval = 1.0\ndead_interval = 3.5\n"

let test_l109_dead_within_two_hellos () =
  fires "L109" "[routing]\nhello_interval = 1.0\ndead_interval = 1.5\n";
  silent "L109" "[routing]\nhello_interval = 1.0\ndead_interval = 2.5\n";
  (* below one hello it is L108's problem, not L109's *)
  silent "L109" "[routing]\nhello_interval = 2.0\ndead_interval = 1.0\n"

let test_l111_stop_and_wait_delayed_acks () =
  fires "L111" "[efcp]\nwindow = 1\nack_delay = 0.02\n";
  silent "L111" "[efcp]\nwindow = 1\n";
  silent "L111" "[efcp]\nwindow = 8\nack_delay = 0.02\n"

let test_l112_keepalive_vs_dead_peer () =
  fires "L112" "[routing]\nkeepalive_interval = 4.0\ndead_peer_timeout = 3.0\n";
  fires "L112" "[routing]\nkeepalive_interval = 3.0\ndead_peer_timeout = 3.0\n";
  silent "L112" "[routing]\nkeepalive_interval = 1.0\ndead_peer_timeout = 3.5\n";
  (* keepalives disabled: no detection, nothing to mis-tune *)
  silent "L112" "[routing]\nkeepalive_interval = 0\ndead_peer_timeout = 0.1\n";
  Alcotest.(check bool) "L112 is an error" true
    (severity_of "L112"
       "[routing]\nkeepalive_interval = 5.0\ndead_peer_timeout = 1.0\n"
    = Diag.Error)

let test_l113_zero_retry_enrollment () =
  fires "L113" "[enrollment]\nenroll_retries = 0\n";
  silent "L113" "[enrollment]\nenroll_retries = 2\n";
  silent "L113" "";
  (* a warning, not an error: single-shot enrollment is legal *)
  Alcotest.(check bool) "L113 is a warning" true
    (severity_of "L113" "[enrollment]\nenroll_retries = 0\n" = Diag.Warning)

let test_l114_timer_pressure () =
  (* 10 µs hellos alone = 100k timer events per simulated second. *)
  fires "L114" "[routing]\nhello_interval = 0.00001\n";
  (* periods sum: 5 kHz keepalives + 6 kHz acks crosses the 10k line *)
  fires "L114" "[routing]\nkeepalive_interval = 0.0002\n[efcp]\nack_delay = 0.00016\n";
  silent "L114" "[routing]\nhello_interval = 1.0\nkeepalive_interval = 1.0\n";
  silent "L114" "";
  (* a warning (gated to failing by --strict), not an error *)
  Alcotest.(check bool) "L114 is a warning" true
    (severity_of "L114" "[routing]\nhello_interval = 0.00001\n" = Diag.Warning)

let test_l115_reorder_window_vs_sack () =
  fires "L115" "[efcp]\nsack_blocks = 8\nreorder_window = 4\n";
  (* default reorder_window (64) against an oversized sack budget *)
  fires "L115" "[efcp]\nsack_blocks = 100\n";
  silent "L115" "[efcp]\nsack_blocks = 4\nreorder_window = 64\n";
  silent "L115" "[efcp]\nsack_blocks = 0\nreorder_window = 1\n";
  silent "L115" "";
  Alcotest.(check bool) "L115 is an error" true
    (severity_of "L115" "[efcp]\nsack_blocks = 8\nreorder_window = 4\n"
     = Diag.Error)

let test_l116_anti_entropy_vs_hello () =
  fires "L116" "[routing]\nanti_entropy_interval = 0.5\nhello_interval = 1.0\n";
  silent "L116" "[routing]\nanti_entropy_interval = 5.0\nhello_interval = 1.0\n";
  (* 0 disables anti-entropy entirely: nothing to warn about *)
  silent "L116" "[routing]\nanti_entropy_interval = 0\nhello_interval = 1.0\n";
  silent "L116" "";
  Alcotest.(check bool) "L116 is a warning" true
    (severity_of "L116"
       "[routing]\nanti_entropy_interval = 0.5\nhello_interval = 1.0\n"
     = Diag.Warning)

let test_l119_congestion_config () =
  (* not a probability: a bound of the key itself, so L005 *)
  fires "L005" "[congestion]\nmark_probability = 1.5\n";
  silent "L119" "[congestion]\nmark_probability = 1.5\n";
  (* threshold at/above the per-class queue capacity: tail drop wins *)
  fires "L119" "[congestion]\nmark_threshold = 256\n";
  fires "L119" "[congestion]\nmark_threshold = 1000\n";
  silent "L119" "[congestion]\nmark_threshold = 255\n";
  (* admission without backoff: zero-delay retry storm *)
  fires "L119" "[congestion]\nadmission_max_pending = 4\nadmission_backoff = 0\n";
  (* the default backoff (0.2 s) is positive, so the limit alone is fine *)
  silent "L119" "[congestion]\nadmission_max_pending = 4\n";
  silent "L119" "[congestion]\nmark_threshold = 32\nmark_probability = 0.2\n";
  silent "L119" "";
  Alcotest.(check bool) "L119 is an error" true
    (severity_of "L119" "[congestion]\nmark_threshold = 256\n" = Diag.Error)

let test_l120_congestion_signal_unwired () =
  (* pushback relays a congestion signal that marking must generate *)
  fires "L120" "[congestion]\npushback = on\n";
  fires "L120" "[congestion]\npushback = on\nmark_threshold = 0\n";
  silent "L120" "[congestion]\npushback = on\nmark_threshold = 32\n";
  silent "L120" "[congestion]\npushback = off\n";
  (* marking armed but the coin never wins *)
  fires "L120" "[congestion]\nmark_threshold = 32\nmark_probability = 0\n";
  silent "L120" "[congestion]\nmark_threshold = 32\nmark_probability = 0.5\n";
  silent "L120" "";
  Alcotest.(check bool) "L120 is a warning" true
    (severity_of "L120" "[congestion]\npushback = on\n" = Diag.Warning)

let test_l122_multipath_monitor () =
  (* Down fires while the path is still Up: Suspect unreachable *)
  fires "L122" "[multipath]\nsuspect_misses = 4\ndown_misses = 2\n";
  silent "L122" "[multipath]\nsuspect_misses = 2\ndown_misses = 4\n";
  silent "L122" "[multipath]\nsuspect_misses = 3\ndown_misses = 3\n";
  (* armed monitor with a zero re-probe base: busy loop on Down paths *)
  fires "L122" "[multipath]\nprobe_interval = 0.05\nreprobe_backoff = 0\n";
  silent "L122" "[multipath]\nprobe_interval = 0.05\nreprobe_backoff = 0.1\n";
  (* monitor off: the zero backoff is never consulted *)
  silent "L122" "[multipath]\nreprobe_backoff = 0\n";
  silent "L122" "";
  Alcotest.(check bool) "L122 is an error" true
    (severity_of "L122" "[multipath]\nsuspect_misses = 4\ndown_misses = 2\n"
     = Diag.Error)

let test_l123_failover_slower_than_routing () =
  (* 0.05 x 4 = 0.2 s, dead_peer_timeout defaults to 3.5 s: fine *)
  silent "L123" "[multipath]\nprobe_interval = 0.05\n";
  (* 1 x 4 = 4 s >= 3.5 s: Down fires after routing already tore down *)
  fires "L123" "[multipath]\nprobe_interval = 1\n";
  silent "L123"
    "[multipath]\nprobe_interval = 1\ndown_misses = 3\n[routing]\n\
     dead_peer_timeout = 10\n";
  fires "L123"
    "[multipath]\nprobe_interval = 0.05\n[routing]\ndead_peer_timeout = 0.1\n";
  (* monitor off: no failover path to race *)
  silent "L123" "[multipath]\ndown_misses = 100\n";
  silent "L123" "";
  Alcotest.(check bool) "L123 is a warning" true
    (severity_of "L123" "[multipath]\nprobe_interval = 1\n" = Diag.Warning)

(* ---------- topology-aware rules ---------- *)

let topo =
  { Lint.diameter = 5; bottleneck_bit_rate = 1e8; rtt = 0.1 }

let test_l201_ttl_vs_diameter () =
  fires ~topo "L201" "[dif]\nmax_ttl = 3\n";
  silent ~topo "L201" "[dif]\nmax_ttl = 8\n";
  (* without a topology the rule cannot run *)
  silent "L201" "[dif]\nmax_ttl = 3\n"

let test_l202_window_vs_bdp () =
  (* BDP = 1e8/8 * 0.1 = 1.25 MB; default 64 x 1400 = 89.6 kB *)
  fires ~topo "L202" "[efcp]\nwindow = 64\nmtu = 1400\n";
  silent ~topo "L202" "[efcp]\nwindow = 1000\nmtu = 1400\n";
  silent "L202" "[efcp]\nwindow = 64\nmtu = 1400\n"

let test_example_shaped_specs_clean () =
  (* The spec shapes shipped in examples/policies must stay clean. *)
  List.iter
    (fun spec ->
      check Alcotest.(list string) ("clean: " ^ spec) [] (codes spec))
    [
      "[scheduler]\nkind = priority\n[auth]\nkind = password\nsecret = x\n[efcp]\nwindow = 64\nrtx = selective\n";
      "[efcp]\nwindow = 1\n";
      "";
    ]

(* ---------- Policy_lang duplicate keys ---------- *)

let test_parse_rejects_duplicates () =
  (match Policy_lang.parse "[efcp]\nwindow = 4\nwindow = 8\n" with
   | Ok _ -> Alcotest.fail "duplicate key accepted"
   | Error e ->
     Alcotest.(check bool) "names the key" true
       (contains_sub e "duplicate key \"window\"");
     Alcotest.(check bool) "names both lines" true
       (contains_sub e "line 3" && contains_sub e "line 2"));
  (match Policy_lang.parse "[efcp]\nwindow = 4\n[dif]\nmax_ttl = 5\n[efcp]\nwindow = 8\n" with
   | Ok _ -> Alcotest.fail "duplicate across re-opened section accepted"
   | Error _ -> ());
  (* same key name in different sections is legal *)
  match Policy_lang.parse "[scheduler]\nkind = fifo\n[auth]\nkind = none\n" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* ---------- Prng-randomised round-trip ---------- *)

let milli rng lo hi = float_of_int (lo + Prng.int rng (hi - lo + 1)) /. 1000.

let random_secret rng =
  String.init (1 + Prng.int rng 12) (fun _ ->
      "abcdefghijklmnopqrstuvwxyz0123456789".[Prng.int rng 36])

let random_policy rng =
  {
    Policy.efcp =
      {
        Policy.window = 1 + Prng.int rng 512;
        mtu = 16 + Prng.int rng 8984;
        init_rto = milli rng 1 4000;
        min_rto = milli rng 0 500;
        max_rtx = 1 + Prng.int rng 50;
        ack_delay = (if Prng.bool rng then 0. else milli rng 1 1000);
        rtx_strategy =
          (match Prng.int rng 3 with
           | 0 -> Policy.Selective_repeat
           | 1 -> Policy.Go_back_n
           | _ -> Policy.No_rtx);
        congestion_control = Prng.bool rng;
        sack_blocks = Prng.int rng 9;
        reorder_window = 1 + Prng.int rng 512;
        max_dup_cache = Prng.int rng 1025;
      };
    scheduler =
      (match Prng.int rng 3 with
       | 0 -> Policy.Fifo
       | 1 -> Policy.Priority_queueing
       | _ -> Policy.Drr (64 + Prng.int rng 4000));
    routing =
      {
        Policy.hello_interval = milli rng 100 9999;
        dead_interval = milli rng 100 19999;
        refresh_ticks = 1 + Prng.int rng 50;
        keepalive_interval = (if Prng.bool rng then 0. else milli rng 100 9999);
        dead_peer_timeout = milli rng 100 19999;
        lsa_max_age = (if Prng.bool rng then 0. else milli rng 1000 99999);
        anti_entropy_interval = (if Prng.bool rng then 0. else milli rng 100 9999);
      };
    enrollment =
      {
        Policy.enroll_timeout = milli rng 100 9999;
        enroll_retries = Prng.int rng 10;
        retry_backoff = milli rng 10 2000;
      };
    auth =
      (if Prng.bool rng then Policy.Auth_none
       else Policy.Auth_password (random_secret rng));
    acl = Policy.Allow_all;
    max_ttl = 1 + Prng.int rng 255;
    telemetry =
      {
        Policy.trace_sample_rate = milli rng 1 1000;
        snapshot_interval = (if Prng.bool rng then 0. else milli rng 100 9999);
        flight_ring_capacity = Prng.int rng 100_000;
      };
    congestion =
      {
        Policy.mark_threshold = Prng.int rng 257;
        mark_probability = milli rng 0 1000;
        pushback = Prng.bool rng;
        admission_max_pending = Prng.int rng 1000;
        admission_backoff = milli rng 10 2000;
      };
    multipath =
      (let mode rng = if Prng.bool rng then Policy.Primary_backup else Policy.Weighted_rr in
       {
         Policy.probe_interval = (if Prng.bool rng then 0. else milli rng 10 9999);
         suspect_misses = 1 + Prng.int rng 8;
         down_misses = 1 + Prng.int rng 16;
         reprobe_backoff = milli rng 1 5000;
         latency = mode rng;
         throughput = mode rng;
         background = mode rng;
       });
  }

let test_roundtrip_random_policies () =
  let rng = Prng.create 20260807 in
  for i = 1 to 300 do
    let p = random_policy rng in
    let text = Policy_lang.to_string p in
    (match Policy_lang.parse text with
     | Error e -> Alcotest.fail (Printf.sprintf "iteration %d: reparse failed: %s" i e)
     | Ok p' ->
       if p' <> p then
         Alcotest.fail
           (Printf.sprintf "iteration %d: policy changed across to_string/parse:\n%s" i
              text));
    (* whatever the policy, its rendering is structurally lint-clean *)
    List.iter
      (fun d ->
        if String.length d.Diag.code = 4 && String.sub d.Diag.code 0 3 = "L00" then
          Alcotest.fail
            (Printf.sprintf "iteration %d: structural finding %s on rendered spec" i
               (Diag.to_string d)))
      (Lint.lint text)
  done

(* ---------- Engine.cancel / clamping edge cases ---------- *)

let test_cancel_after_fire_is_noop () =
  let e = Engine.create () in
  let fired = ref 0 in
  let h = Engine.schedule e ~delay:1. (fun () -> incr fired) in
  Engine.run e;
  check Alcotest.int "fired once" 1 !fired;
  Engine.cancel h;
  Engine.cancel h;
  (* double cancel *)
  Engine.run e;
  check Alcotest.int "still once" 1 !fired

let test_cancel_spares_same_time_events () =
  let e = Engine.create () in
  let log = ref [] in
  let _a = Engine.schedule e ~delay:1. (fun () -> log := "a" :: !log) in
  let b = Engine.schedule e ~delay:1. (fun () -> log := "b" :: !log) in
  let _c = Engine.schedule e ~delay:1. (fun () -> log := "c" :: !log) in
  Engine.cancel b;
  Engine.run e;
  check Alcotest.(list string) "others keep FIFO order" [ "a"; "c" ] (List.rev !log)

let test_negative_delay_fires_now_not_in_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5. (fun () -> ()));
  Engine.run e;
  check (Alcotest.float 1e-9) "clock advanced" 5. (Engine.now e);
  let fired_at = ref (-1.) in
  ignore (Engine.schedule e ~delay:(-3.) (fun () -> fired_at := Engine.now e));
  ignore (Engine.schedule e ~delay:0.5 (fun () -> ()));
  Engine.run e;
  check (Alcotest.float 1e-9) "clamped to now" 5. !fired_at;
  check (Alcotest.float 1e-9) "no time travel" 5.5 (Engine.now e)

let test_schedule_at_past_clamped () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:2. (fun () -> ()));
  Engine.run e;
  let fired_at = ref (-1.) in
  ignore (Engine.schedule_at e ~time:1. (fun () -> fired_at := Engine.now e));
  Engine.run e;
  check (Alcotest.float 1e-9) "past time clamped to now" 2. !fired_at

(* ---------- sanitizer ---------- *)

(* A fresh engine with checking on, straight after its creation. *)
let with_sanitizer f =
  let engine = Engine.create () in
  Sanitizer.enable engine;
  f engine

let test_sanitizer_clean_run_is_silent () =
  with_sanitizer (fun engine ->
      let rng = Prng.create 42 in
      let link =
        Link.create engine rng ~bit_rate:1e7 ~delay:0.01 ~queue_capacity:4
          ~loss:(Loss.Bernoulli 0.2) ()
      in
      let a = Link.endpoint_a link and b = Link.endpoint_b link in
      let got = ref 0 in
      b.Chan.set_receiver (fun _ -> incr got);
      a.Chan.set_receiver (fun _ -> ());
      (* enough traffic to exercise queue-tail drops and the loss model,
         plus a carrier flap to void frames in flight *)
      for i = 0 to 199 do
        ignore
          (Engine.schedule engine ~delay:(0.001 *. float_of_int i) (fun () ->
               a.Chan.send (Bytes.create 500);
               b.Chan.send (Bytes.create 200)))
      done;
      ignore (Engine.schedule engine ~delay:0.05 (fun () -> Link.set_up link false));
      ignore (Engine.schedule engine ~delay:0.12 (fun () -> Link.set_up link true));
      Engine.run engine;
      check Alcotest.(list string) "no invariant violations" []
        (List.map Diag.to_string (Sanitizer.violations engine));
      check Alcotest.(list string) "conservation holds" []
        (List.map Diag.to_string (Sanitizer.audit_link link));
      check Alcotest.(list string) "drained" []
        (List.map Diag.to_string (Sanitizer.audit_drained engine));
      Alcotest.(check bool) "some frames made it" true (!got > 0))

let test_sanitizer_catches_conservation_violation () =
  with_sanitizer (fun engine ->
      let rng = Prng.create 7 in
      let link = Link.create engine rng ~bit_rate:1e7 ~delay:0.005 () in
      let a = Link.endpoint_a link in
      (Link.endpoint_b link).Chan.set_receiver (fun _ -> ());
      for _ = 1 to 50 do
        a.Chan.send (Bytes.create 300)
      done;
      Engine.run engine;
      check Alcotest.(list string) "clean before tampering" []
        (List.map Diag.to_string (Sanitizer.audit_link link));
      (* Inject the accounting bug: one frame enters the link but never
         reaches any delivered/dropped path — a leak the audit must
         flag. *)
      let c = Link.conservation_a link in
      c.Link.injected <- c.Link.injected + 1;
      match Sanitizer.audit_link link with
      | [ d ] ->
        check Alcotest.string "code" "SAN_PDU_CONSERVATION" d.Diag.code;
        Alcotest.(check bool) "is an error" true (d.Diag.severity = Diag.Error);
        Alcotest.(check bool) "counts the leak" true
          (contains_sub d.Diag.message "1 unaccounted")
      | ds ->
        Alcotest.fail
          (Printf.sprintf "expected exactly one finding, got %d" (List.length ds)))

let test_sanitizer_efcp_lossy_transfer_clean () =
  with_sanitizer (fun engine ->
      let rng = Prng.create 99 in
      let cfg =
        { Policy.default_efcp with Policy.window = 8; init_rto = 0.1; min_rto = 0.02 }
      in
      let sender_ref = ref None and receiver_ref = ref None in
      let n = ref 0 in
      let to_receiver (pdu : Pdu.t) =
        incr n;
        if not (Prng.bernoulli rng 0.1) then
          ignore
            (Engine.schedule engine ~delay:0.002 (fun () ->
                 match !receiver_ref with Some r -> Efcp.handle_pdu r pdu | None -> ()));
        0
      in
      let to_sender (pdu : Pdu.t) =
        ignore
          (Engine.schedule engine ~delay:0.002 (fun () ->
               match !sender_ref with Some s -> Efcp.handle_pdu s pdu | None -> ()));
        0
      in
      let delivered = ref 0 in
      let sender =
        Efcp.create engine ~config:cfg ~in_order:true ~local_cep:1 ~remote_cep:2
          ~qos_id:1 ~send_pdu:to_receiver
          ~deliver:(fun _ -> ())
          ~on_error:(fun _ -> ())
          ()
      in
      let receiver =
        Efcp.create engine ~config:cfg ~in_order:true ~local_cep:2 ~remote_cep:1
          ~qos_id:1 ~send_pdu:to_sender
          ~deliver:(fun _ -> incr delivered)
          ~on_error:(fun _ -> ())
          ()
      in
      sender_ref := Some sender;
      receiver_ref := Some receiver;
      for i = 1 to 100 do
        Efcp.send sender (Pdu.view_of_bytes (Bytes.of_string (Printf.sprintf "m%d" i)))
      done;
      Engine.run ~until:30. engine;
      check Alcotest.int "all delivered despite loss" 100 !delivered;
      check Alcotest.(list string) "efcp invariants hold under loss" []
        (List.map Diag.to_string (Sanitizer.violations engine)))

let test_sanitizer_violation_reporting () =
  with_sanitizer (fun engine ->
      let checks = Engine.checks engine in
      Invariant.record checks ~code:"SAN_TEST" "something impossible happened";
      Invariant.record checks ~code:"SAN_TEST" "again";
      match Sanitizer.violations engine with
      | [ d ] ->
        check Alcotest.string "code" "SAN_TEST" d.Diag.code;
        Alcotest.(check bool) "first detail + count" true
          (contains_sub d.Diag.message "something impossible"
           && contains_sub d.Diag.message "2 occurrences")
      | ds -> Alcotest.fail (Printf.sprintf "got %d diagnostics" (List.length ds)))

(* RIB object names are checked where the member writes them: a
   directory path with an empty segment records SAN_RIB_PATH on the
   member's engine, and a well-formed one records nothing. *)
let test_sanitizer_rib_path () =
  with_sanitizer (fun engine ->
      let dif = Rina_core.Dif.create engine "d" in
      let m = Rina_core.Dif.add_member dif ~name:"m" () in
      let publish name =
        Rina_core.Ipcp.register_app m (Rina_core.Types.apn name) ~on_flow:ignore;
        List.map (fun (d : Diag.t) -> d.code) (Sanitizer.violations engine)
      in
      check Alcotest.(list string) "well-formed name" [] (publish "svc");
      check Alcotest.(list string) "empty segment caught" [ "SAN_RIB_PATH" ]
        (publish "svc/"))

let test_routing_loop_detection () =
  let nh pairs : Routing.next_hops =
    let h = Hashtbl.create 8 in
    List.iter (fun (dst, next) -> Hashtbl.replace h dst (next, 1.)) pairs;
    h
  in
  (* consistent line 1 - 2 - 3 *)
  let clean =
    [ (1, nh [ (2, 2); (3, 2) ]); (2, nh [ (1, 1); (3, 3) ]); (3, nh [ (1, 2); (2, 2) ]) ]
  in
  check Alcotest.(list string) "consistent tables are loop-free" []
    (List.map Diag.to_string (Sanitizer.check_routing_loops clean));
  (* 1 and 2 point at each other for destination 3 *)
  let looping = [ (1, nh [ (3, 2) ]); (2, nh [ (3, 1) ]) ] in
  let ds = Sanitizer.check_routing_loops looping in
  Alcotest.(check bool) "loop reported" true
    (List.exists (fun d -> d.Diag.code = "SAN_ROUTE_LOOP") ds);
  (* 2 simply has no route onward for destination 3 *)
  let blackhole = [ (1, nh [ (3, 2) ]); (2, nh [ (1, 1) ]) ] in
  let ds = Sanitizer.check_routing_loops blackhole in
  Alcotest.(check bool) "blackhole reported" true
    (List.exists (fun d -> d.Diag.code = "SAN_ROUTE_BLACKHOLE") ds)

let test_spf_tables_pass_sanitizer () =
  (* Real forwarding tables out of the link-state SPF must be loop-free. *)
  let lsa origin neighbors = { Routing.Lsa.origin; seq = 1; neighbors } in
  let db = Routing.create () in
  (* square with a diagonal: 1-2, 2-3, 3-4, 4-1, 1-3 *)
  let edges =
    [
      (1, [ (2, 1.); (4, 1.); (3, 1.5) ]);
      (2, [ (1, 1.); (3, 1.) ]);
      (3, [ (2, 1.); (4, 1.); (1, 1.5) ]);
      (4, [ (3, 1.); (1, 1.) ]);
    ]
  in
  List.iter (fun (o, ns) -> ignore (Routing.install db (lsa o ns))) edges;
  let tables = List.map (fun (o, _) -> (o, Routing.spf db ~source:o)) edges in
  check Alcotest.(list string) "spf tables are clean" []
    (List.map Diag.to_string (Sanitizer.check_routing_loops tables))

let () =
  Alcotest.run "check"
    [
      ( "lint-structure",
        [
          Alcotest.test_case "L001 unknown section" `Quick test_l001_unknown_section;
          Alcotest.test_case "L002 unknown key" `Quick test_l002_unknown_key;
          Alcotest.test_case "L003 duplicate key" `Quick test_l003_duplicate_key;
          Alcotest.test_case "L004 malformed line" `Quick test_l004_malformed_line;
          Alcotest.test_case "L005 bad value" `Quick test_l005_bad_value;
          Alcotest.test_case "L005 key-table bounds" `Quick test_l005_table_bounds;
          Alcotest.test_case "lint keeps going" `Quick test_lint_keeps_going;
        ] );
      ( "lint-consistency",
        [
          Alcotest.test_case "L101 rto floor" `Quick test_l101_rto_floor;
          Alcotest.test_case "L102 rto ceiling" `Quick test_l102_rto_ceiling;
          Alcotest.test_case "L103 ack delay vs rto" `Quick test_l103_ack_delay_vs_rto;
          Alcotest.test_case "L104 quantum without drr" `Quick test_l104_quantum_without_drr;
          Alcotest.test_case "L105 quantum below mtu" `Quick test_l105_quantum_below_mtu;
          Alcotest.test_case "L106 password needs secret" `Quick test_l106_password_needs_secret;
          Alcotest.test_case "L107 secret without password" `Quick test_l107_secret_without_password;
          Alcotest.test_case "L108 dead vs hello" `Quick test_l108_dead_not_above_hello;
          Alcotest.test_case "L109 dead within 2 hellos" `Quick test_l109_dead_within_two_hellos;
          Alcotest.test_case "L111 stop-and-wait delayed acks" `Quick test_l111_stop_and_wait_delayed_acks;
          Alcotest.test_case "L112 keepalive vs dead peer" `Quick test_l112_keepalive_vs_dead_peer;
          Alcotest.test_case "L113 zero-retry enrollment" `Quick test_l113_zero_retry_enrollment;
          Alcotest.test_case "L114 timer pressure" `Quick test_l114_timer_pressure;
          Alcotest.test_case "L115 reorder window vs sack" `Quick
            test_l115_reorder_window_vs_sack;
          Alcotest.test_case "L116 anti-entropy vs hello" `Quick
            test_l116_anti_entropy_vs_hello;
          Alcotest.test_case "L119 congestion config" `Quick
            test_l119_congestion_config;
          Alcotest.test_case "L120 unwired congestion signal" `Quick
            test_l120_congestion_signal_unwired;
          Alcotest.test_case "L122 multipath monitor" `Quick
            test_l122_multipath_monitor;
          Alcotest.test_case "L123 failover vs dead-peer" `Quick
            test_l123_failover_slower_than_routing;
        ] );
      ( "lint-topology",
        [
          Alcotest.test_case "L201 ttl vs diameter" `Quick test_l201_ttl_vs_diameter;
          Alcotest.test_case "L202 window vs bdp" `Quick test_l202_window_vs_bdp;
          Alcotest.test_case "example-shaped specs clean" `Quick test_example_shaped_specs_clean;
        ] );
      ( "policy-lang",
        [
          Alcotest.test_case "duplicate keys rejected" `Quick test_parse_rejects_duplicates;
          Alcotest.test_case "random round-trip (Prng)" `Quick test_roundtrip_random_policies;
        ] );
      ( "engine-edge",
        [
          Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire_is_noop;
          Alcotest.test_case "cancel spares same-time events" `Quick
            test_cancel_spares_same_time_events;
          Alcotest.test_case "negative delay clamps to now" `Quick
            test_negative_delay_fires_now_not_in_past;
          Alcotest.test_case "schedule_at past clamps" `Quick test_schedule_at_past_clamped;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "clean link run silent" `Quick test_sanitizer_clean_run_is_silent;
          Alcotest.test_case "conservation violation caught" `Quick
            test_sanitizer_catches_conservation_violation;
          Alcotest.test_case "efcp lossy transfer clean" `Quick
            test_sanitizer_efcp_lossy_transfer_clean;
          Alcotest.test_case "violation reporting" `Quick test_sanitizer_violation_reporting;
          Alcotest.test_case "rib path checked" `Quick test_sanitizer_rib_path;
          Alcotest.test_case "routing loop detection" `Quick test_routing_loop_detection;
          Alcotest.test_case "spf tables pass" `Quick test_spf_tables_pass_sanitizer;
        ] );
    ]
