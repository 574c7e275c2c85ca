(* Whole-topology static verification tests.

   Fixtures plant one defect each and assert the exact V-code fires;
   QCheck properties generate random recursive stacks — clean ones
   must verify silent, and three planted defect classes (unreachable
   name, address collision, enrollment cycle) must always be
   flagged.  A Par sweep returns exactly the sequential results. *)

module Diag = Rina_check.Diag
module Verify = Rina_check.Verify
module Sanitizer = Rina_check.Sanitizer
module Lint = Rina_check.Lint
module Policy = Rina_core.Policy
module Topo = Rina_exp.Topo
module Par = Rina_exp.Par

let check = Alcotest.check

(* ---------- model-building helpers ---------- *)

let mem ?(addr = 0) ?(apps = []) name =
  { Verify.m_name = name; m_address = addr; m_apps = apps }

let direct ?(delay = 0.002) ?(bit_rate = 10_000_000.) ?(queue = 64) a b =
  {
    Verify.adj_a = a;
    adj_b = b;
    att = Verify.Direct { delay; bit_rate; queue_frames = queue };
  }

let stacked lower via_a via_b a b =
  { Verify.adj_a = a; adj_b = b; att = Verify.Stacked { lower_dif = lower; via_a; via_b } }

let dif ?(policy = Policy.default) name members adjs =
  { Verify.d_name = name; d_policy = policy; d_members = members; d_adjacencies = adjs }

let model ?(intents = []) difs = { Verify.difs; intents }

let intent d src app = { Verify.it_dif = d; it_src = src; it_dst_app = app }

let codes_of ?max_depth m =
  List.map (fun d -> d.Diag.code) (Verify.verify ?max_depth m).diags

let flags ?max_depth code m =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires" code)
    true
    (List.mem code (codes_of ?max_depth m))

let silent m =
  check (Alcotest.list Alcotest.string) "no findings" [] (codes_of m)

let with_mtu p v =
  let e = p.Policy.efcp in
  { p with Policy.efcp = { e with Policy.mtu = v } }

let with_window p v =
  let e = p.Policy.efcp in
  { p with Policy.efcp = { e with Policy.window = v } }

(* A two-member lower DIF usable as a stacking base. *)
let wire ?policy name =
  dif ?policy name
    [ mem ~addr:1 (name ^ ".a"); mem ~addr:2 (name ^ ".b") ]
    [ direct (name ^ ".a") (name ^ ".b") ]

(* ---------- fixtures: one defect per test ---------- *)

let test_structural () =
  flags "V001" (model [ dif "d" [ mem ~addr:1 "a" ] [ direct "a" "ghost" ] ]);
  flags "V002"
    (model [ dif "d" [ mem ~addr:1 "a"; mem ~addr:2 "b" ]
               [ stacked "nowhere" "x" "y" "a" "b" ] ]);
  flags "V002"
    (model [ wire "w"; dif "d" [ mem ~addr:1 "a"; mem ~addr:2 "b" ]
               [ stacked "w" "w.a" "ghost" "a" "b" ] ]);
  flags "V003" (model [ wire "w"; wire "w" ]);
  flags "V003" (model [ dif "d" [ mem ~addr:1 "a"; mem ~addr:2 "a" ] [] ]);
  flags "V004" (model ~intents:[ intent "nowhere" "a" "app" ] [ wire "w" ]);
  flags "V004" (model ~intents:[ intent "w" "ghost" "app" ] [ wire "w" ])

let test_naming () =
  flags "V101" (model ~intents:[ intent "w" "w.a" "app" ] [ wire "w" ]);
  (* disconnected member: whole-DIF check and the intent-scoped one *)
  let disconnected =
    model
      ~intents:[ intent "d" "a" "app" ]
      [
        dif "d"
          [ mem ~addr:1 "a"; mem ~addr:2 "b"; mem ~addr:3 ~apps:[ "app" ] "island" ]
          [ direct "a" "b" ];
      ]
  in
  flags "V102" disconnected;
  flags "V104" disconnected;
  flags "V103"
    (model [ dif "d" [ mem ~addr:1 ~apps:[ "app" ] "a"; mem ~addr:2 ~apps:[ "app" ] "b" ]
               [ direct "a" "b" ] ]);
  (* lower endpoints exist but are not connected down there *)
  flags "V110"
    (model
       [
         dif "w" [ mem ~addr:1 "w.a"; mem ~addr:2 "w.b" ] [];
         dif "d" [ mem ~addr:1 "a"; mem ~addr:2 "b" ] [ stacked "w" "w.a" "w.b" "a" "b" ];
       ])

let test_addressing () =
  flags "V201"
    (model [ dif "d" [ mem ~addr:5 "a"; mem ~addr:5 "b" ] [ direct "a" "b" ] ]);
  flags "V202"
    (model [ dif "d" [ mem ~addr:(-1) "a"; mem ~addr:2 "b" ] [ direct "a" "b" ] ]);
  flags "V203"
    (model [ dif "d" [ mem ~addr:1 "a"; mem ~addr:0 "b" ] [ direct "a" "b" ] ]);
  flags "V211"
    (model [ dif "d" [ mem ~addr:1 "a"; mem ~addr:2 "b" ] [ stacked "d" "a" "b" "a" "b" ] ])

let test_depth () =
  (* d0 <- d1 <- ... <- d20: depth 21 over the default bound of 16 *)
  let chain =
    wire "d0"
    :: List.init 20 (fun i ->
           let name = Printf.sprintf "d%d" (i + 1)
           and lower = Printf.sprintf "d%d" i in
           dif name
             [ mem ~addr:1 (name ^ ".a"); mem ~addr:2 (name ^ ".b") ]
             [ stacked lower (lower ^ ".a") (lower ^ ".b") (name ^ ".a") (name ^ ".b") ])
  in
  let m = model chain in
  flags "V210" m;
  check (Alcotest.list Alcotest.string) "bound respected when raised" []
    (codes_of ~max_depth:32 m);
  check Alcotest.int "support depth measured" 21
    (Verify.verify ~max_depth:32 m).summary.support_depth

let test_feasibility () =
  let lower = wire "w" in
  let upper policy =
    dif ~policy "d"
      [ mem ~addr:1 "a"; mem ~addr:2 "b" ]
      [ stacked "w" "w.a" "w.b" "a" "b" ]
  in
  (* default 1400/1400: 2 fragments, silent *)
  silent (model [ lower; upper Policy.default ]);
  (* 3x the lower MTU: warning, not an error (window 64 admits it) *)
  flags "V220" (model [ lower; upper (with_mtu Policy.default (3 * 1400)) ]);
  (* one (N)-PDU needs more fragments than the whole lower window *)
  flags "V221" (model [ lower; upper (with_mtu Policy.default (65 * 1400)) ]);
  (* a full EFCP window overruns the link queue *)
  flags "V222"
    (model
       [
         dif
           ~policy:(with_window Policy.default 32)
           "d"
           [ mem ~addr:1 "a"; mem ~addr:2 "b" ]
           [ direct ~queue:8 "a" "b" ];
       ])

let test_multihomed_in_name_only () =
  (* Both attachments of the registrant ride the same lower DIF, and
     every lower path funnels through the single w.m--w.b edge: one
     link failure severs both "redundant" attachments. *)
  let lower =
    dif "w"
      [ mem ~addr:1 "w.a1"; mem ~addr:2 "w.a2"; mem ~addr:3 "w.m"; mem ~addr:4 "w.b" ]
      [ direct "w.a1" "w.m"; direct "w.a2" "w.m"; direct "w.m" "w.b" ]
  in
  let upper vias =
    dif "d"
      [ mem ~addr:1 ~apps:[ "app" ] "srv"; mem ~addr:2 "r1"; mem ~addr:3 "r2" ]
      (direct "r1" "r2"
       :: List.map (fun (via_a, peer) -> stacked "w" via_a "w.b" peer "srv") vias)
  in
  flags "V230" (model [ lower; upper [ ("w.a1", "r1"); ("w.a2", "r2") ] ]);
  (* a bypass edge gives the lower DIF two disjoint paths: no cut edge *)
  let ringed = { lower with Verify.d_adjacencies = direct "w.a1" "w.b" :: lower.Verify.d_adjacencies } in
  silent (model [ ringed; upper [ ("w.a1", "r1"); ("w.a2", "r2") ] ]);
  (* attachments over two independent lower DIFs share no fate at all *)
  let w2 = wire "w2" in
  let diverse =
    dif "d"
      [ mem ~addr:1 ~apps:[ "app" ] "srv"; mem ~addr:2 "r1"; mem ~addr:3 "r2" ]
      [ direct "r1" "r2"; stacked "w" "w.a1" "w.b" "r1" "srv";
        stacked "w2" "w2.a" "w2.b" "r2" "srv" ]
  in
  silent (model [ lower; w2; diverse ]);
  (* a single-homed registrant over the same choke point stays silent *)
  let single =
    dif "d"
      [ mem ~addr:1 ~apps:[ "app" ] "srv"; mem ~addr:2 "r1" ]
      [ stacked "w" "w.a1" "w.b" "r1" "srv" ]
  in
  silent (model [ lower; single ])

let test_enrollment_cycle () =
  let m =
    model
      [
        dif "x" [ mem ~addr:1 "x.a"; mem ~addr:2 "x.b" ] [ stacked "y" "y.a" "y.b" "x.a" "x.b" ];
        dif "y" [ mem ~addr:1 "y.a"; mem ~addr:2 "y.b" ] [ stacked "x" "x.a" "x.b" "y.a" "y.b" ];
      ]
  in
  flags "V301" m;
  (* reported once, not once per participant *)
  check Alcotest.int "one cycle report" 1
    (List.length (List.filter (String.equal "V301") (codes_of m)))

let test_effective_delay () =
  (* stacked delay = shortest path through the lower DIF *)
  let lower =
    dif "w"
      [ mem ~addr:1 "w.a"; mem ~addr:2 "w.m"; mem ~addr:3 "w.b" ]
      [ direct ~delay:0.003 "w.a" "w.m"; direct ~delay:0.004 "w.m" "w.b";
        direct ~delay:0.1 "w.a" "w.b" ]
  in
  let adj = stacked "w" "w.a" "w.b" "a" "b" in
  let d = dif "d" [ mem ~addr:1 "a"; mem ~addr:2 "b" ] [ adj ] in
  let m = model [ lower; d ] in
  check (Alcotest.float 1e-9) "two-hop path beats the slow direct link" 0.007
    (Verify.effective_delay m d adj)

let test_scenarios_clean () =
  List.iter
    (fun (name, m) ->
      let r = Verify.verify m in
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "scenario %s verifies silent" name)
        []
        (List.map (fun d -> d.Diag.code) r.diags))
    (Topo.scenarios ())

let test_lint_topo () =
  match Topo.scenario "recursive-internet" with
  | None -> Alcotest.fail "registry lost recursive-internet"
  | Some m -> (
    match Verify.lint_topo m ~dif:"internet" with
    | None -> Alcotest.fail "no topo summary for the internet DIF"
    | Some t ->
      check Alcotest.int "hop diameter" 2 t.Lint.diameter;
      check (Alcotest.float 1e-6) "rtt = 2 x worst path through the stack" 0.02
        t.Lint.rtt;
      check (Alcotest.float 1e-3) "bottleneck through stacked paths" 50_000_000.
        t.Lint.bottleneck_bit_rate)

let test_model_of_net () =
  let net = Topo.line ~n:4 () in
  let m = Topo.model_of_net net in
  let r = Verify.verify m in
  check (Alcotest.list Alcotest.string) "live line model verifies silent" []
    (List.map (fun d -> d.Diag.code) r.diags);
  check Alcotest.int "members extracted" 4 r.summary.n_members

(* ---------- QCheck: random recursive stacks ---------- *)

(* Deterministic little generator state so models are reproducible
   from the QCheck-supplied integers alone. *)
let mix seed i = (seed * 1103515245) + (i * 12345)

let clean_model ~n ~extra ~levels ~seed =
  (* the qcheck shrinker can step outside int_range bounds; clamp *)
  let n = max 3 n and extra = max 0 extra and levels = max 1 levels in
  let mname l i = Printf.sprintf "L%dm%d" l i in
  let level l =
    let members =
      List.init n (fun i ->
          let apps = if l = levels - 1 && i = n - 1 then [ "app" ] else [] in
          mem ~addr:(i + 1) ~apps (mname l i))
    in
    let chain lower =
      List.init (n - 1) (fun i ->
          match lower with
          | None -> direct (mname l i) (mname l (i + 1))
          | Some lo ->
            let a = abs (mix seed ((l * 100) + i)) mod n in
            let b = (a + 1 + (abs (mix seed ((l * 100) + i + 7)) mod (n - 1))) mod n in
            stacked lo (mname (l - 1) a) (mname (l - 1) b) (mname l i) (mname l (i + 1)))
    in
    let extra_edges =
      if l > 0 then []
      else
        List.init extra (fun i ->
            let a = abs (mix seed (i + 1)) mod n in
            let b = (a + 1 + (abs (mix seed (i + 17)) mod (n - 1))) mod n in
            direct ~delay:0.001 (mname 0 a) (mname 0 b))
    in
    dif (Printf.sprintf "L%d" l) members (chain (if l = 0 then None else Some (Printf.sprintf "L%d" (l - 1))) @ extra_edges)
  in
  let difs = List.init levels level in
  let top = levels - 1 in
  model ~intents:[ intent (Printf.sprintf "L%d" top) (mname top 0) "app" ] difs

let params =
  QCheck.(
    quad (int_range 3 6) (int_range 0 3) (int_range 1 3) (int_range 0 1_000_000))

let prop_clean_verifies_silent =
  QCheck.Test.make ~name:"random defect-free stacks verify silent" ~count:150 params
    (fun (n, extra, levels, seed) ->
      codes_of (clean_model ~n ~extra ~levels ~seed) = [])

(* Mutate a clean model to plant one defect; the matching code must
   always fire. *)
let plant defect (m : Verify.model) =
  let top = List.nth m.difs (List.length m.difs - 1) in
  match defect with
  | `Unreachable ->
    (* island member registering a fresh name, plus an intent to it *)
    let difs =
      List.map
        (fun d ->
          if d.Verify.d_name = top.Verify.d_name then
            { d with Verify.d_members = mem ~addr:99 ~apps:[ "lost" ] "island" :: d.d_members }
          else d)
        m.difs
    in
    let src = (List.hd top.Verify.d_members).Verify.m_name in
    ( { Verify.difs; intents = intent top.Verify.d_name src "lost" :: m.intents },
      [ "V102"; "V104" ] )
  | `Collision ->
    let difs =
      List.map
        (fun d ->
          if d.Verify.d_name = top.Verify.d_name then
            {
              d with
              Verify.d_members =
                (match d.Verify.d_members with
                 | a :: b :: rest -> a :: { b with Verify.m_address = a.Verify.m_address } :: rest
                 | short -> short);
            }
          else d)
        m.difs
    in
    ({ m with difs }, [ "V201" ])
  | `Cycle ->
    (* bottom DIF gains an adjacency riding the top DIF; with a single
       level that degenerates to self-support (V211 instead of V301) *)
    let via_a = (List.hd top.Verify.d_members).Verify.m_name in
    let via_b = (List.nth top.Verify.d_members 1).Verify.m_name in
    let difs =
      List.map
        (fun d ->
          if d.Verify.d_name = "L0" then
            let a = (List.hd d.Verify.d_members).Verify.m_name in
            let b = (List.nth d.Verify.d_members 1).Verify.m_name in
            {
              d with
              Verify.d_adjacencies =
                stacked top.Verify.d_name via_a via_b a b :: d.d_adjacencies;
            }
          else d)
        m.difs
    in
    ({ m with difs }, [ (if List.length m.difs = 1 then "V211" else "V301") ])

let defect_gen =
  QCheck.oneofl
    ~print:(function
      | `Unreachable -> "unreachable"
      | `Collision -> "collision"
      | `Cycle -> "cycle")
    [ `Unreachable; `Collision; `Cycle ]

let prop_planted_defect_flagged =
  QCheck.Test.make ~name:"planted defects are always flagged" ~count:150
    QCheck.(pair defect_gen params)
    (fun (defect, (n, extra, levels, seed)) ->
      let planted, expected = plant defect (clean_model ~n ~extra ~levels ~seed) in
      let codes = codes_of planted in
      List.for_all (fun c -> List.mem c codes) expected)

(* ---------- parallel sweep ---------- *)

let test_par_sweep_identical () =
  let items = Array.init 64 (fun i -> i) in
  let f i = (i * 31) land 0xff in
  check Alcotest.bool "parallel result byte-identical to sequential" true
    (Array.map f items = Par.map ~domains:4 f items)

(* ---------- rule tables ---------- *)

let test_rule_tables () =
  let all = Lint.rules @ Verify.rules @ Sanitizer.rules in
  let codes = List.map (fun (r : Diag.rule) -> r.r_code) all in
  check Alcotest.int "no duplicate codes across tables"
    (List.length codes)
    (List.length (List.sort_uniq compare codes));
  (* every code the verifier can emit is documented *)
  let documented = List.map (fun (r : Diag.rule) -> r.r_code) Verify.rules in
  List.iter
    (fun c ->
      check Alcotest.bool (c ^ " documented") true (List.mem c documented))
    [ "V001"; "V002"; "V003"; "V004"; "V101"; "V102"; "V103"; "V104"; "V110";
      "V201"; "V202"; "V203"; "V210"; "V211"; "V220"; "V221"; "V222"; "V230";
      "V301" ]

let () =
  Alcotest.run "rina_verify"
    [
      ( "fixtures",
        [
          Alcotest.test_case "structural" `Quick test_structural;
          Alcotest.test_case "naming" `Quick test_naming;
          Alcotest.test_case "addressing" `Quick test_addressing;
          Alcotest.test_case "recursion depth" `Quick test_depth;
          Alcotest.test_case "cross-layer feasibility" `Quick test_feasibility;
          Alcotest.test_case "multihomed in name only" `Quick
            test_multihomed_in_name_only;
          Alcotest.test_case "enrollment cycle" `Quick test_enrollment_cycle;
          Alcotest.test_case "effective delay" `Quick test_effective_delay;
        ] );
      ( "registry",
        [
          Alcotest.test_case "shipped scenarios clean" `Quick test_scenarios_clean;
          Alcotest.test_case "lint_topo derivation" `Quick test_lint_topo;
          Alcotest.test_case "model_of_net" `Quick test_model_of_net;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_clean_verifies_silent;
          QCheck_alcotest.to_alcotest prop_planted_defect_flagged;
        ] );
      ( "parallel sweep",
        [ Alcotest.test_case "identical to sequential" `Quick
            test_par_sweep_identical ] );
      ("rule tables", [ Alcotest.test_case "coverage" `Quick test_rule_tables ]);
    ]
