(* Unit and property tests for rina_core's passive modules: naming,
   PDU/RIEP and management payload codecs, SDU protection, RIB, QoS,
   policies, delimiting, routing computation, shim framing. *)

module Types = Rina_core.Types
module Pdu = Rina_core.Pdu
module Riep = Rina_core.Riep
module Rib = Rina_core.Rib
module Qos = Rina_core.Qos
module Policy = Rina_core.Policy
module Policy_lang = Rina_core.Policy_lang
module Delimiting = Rina_core.Delimiting
module Routing = Rina_core.Routing
module Shim = Rina_core.Shim
module Sdu = Rina_core.Sdu_protection
module Enrollment = Rina_core.Enrollment
module Flow_alloc = Rina_core.Flow_alloc

let check = Alcotest.check

(* ---------- Types ---------- *)

let test_apn_roundtrip () =
  let a = Types.apn ~instance:"7" "web-server" in
  check Alcotest.string "to_string" "web-server/7" (Types.apn_to_string a);
  Alcotest.(check bool) "roundtrip" true
    (Types.apn_equal a (Types.apn_of_string "web-server/7"));
  let d = Types.apn_of_string "plain" in
  check Alcotest.string "default instance" "1" d.Types.ap_instance;
  Alcotest.(check bool) "compare orders by name" true
    (Types.apn_compare (Types.apn "a") (Types.apn "b") < 0)

(* ---------- Pdu ---------- *)

(* A decoded payload views the frame it came from; copy it out so that
   [=] compares every header field and the payload bytes. *)
let plain (p : Pdu.t) = { p with Pdu.payload = Pdu.view_of_bytes (Pdu.bytes_of_view p.Pdu.payload) }

let test_pdu_roundtrip_all_types () =
  List.iter
    (fun pdu_type ->
      let p =
        Pdu.make ~pdu_type ~dst_addr:77 ~src_addr:13 ~dst_cep:4 ~src_cep:5 ~qos_id:2
          ~seq:9999 ~ack:55 ~window:31 ~ttl:9
          ~flags:(Pdu.flag_drf lor Pdu.flag_fin)
          (Bytes.of_string "payload bytes")
      in
      match Pdu.decode (Pdu.encode p) with
      | Ok q ->
        Alcotest.(check bool) "equal" true (plain p = plain q);
        Alcotest.(check bool) "drf" true (Pdu.has_flag q Pdu.flag_drf);
        Alcotest.(check bool) "fin" true (Pdu.has_flag q Pdu.flag_fin)
      | Error e -> Alcotest.fail e)
    [ Pdu.Dtp; Pdu.Ack; Pdu.Mgmt; Pdu.Hello ]

let test_pdu_header_size () =
  let p =
    Pdu.make ~pdu_type:Pdu.Dtp ~dst_addr:1 ~src_addr:2 (Bytes.create 100)
  in
  check Alcotest.int "encoded length" (Pdu.header_size + 100)
    (Bytes.length (Pdu.encode p))

let test_pdu_decode_garbage () =
  (match Pdu.decode (Bytes.of_string "nonsense") with
   | Ok _ -> Alcotest.fail "accepted garbage"
   | Error _ -> ());
  (* wrong version byte *)
  let p = Pdu.make ~pdu_type:Pdu.Dtp ~dst_addr:1 ~src_addr:2 Bytes.empty in
  let b = Pdu.encode p in
  Bytes.set b 0 '\x63';
  match Pdu.decode b with
  | Ok _ -> Alcotest.fail "accepted bad version"
  | Error _ -> ()

(* A payload built with headroom becomes its own frame on the first
   encode; encoding the same PDU again (a retransmission) yields a fresh
   frame with the same bytes, and decoding yields a view into it. *)
let test_pdu_encode_frame_in_place () =
  let v = Pdu.with_headroom 5 in
  Bytes.blit_string "hello" 0 v.Pdu.buf v.Pdu.off 5;
  let p =
    { (Pdu.make ~pdu_type:Pdu.Dtp ~dst_addr:3 ~src_addr:4 ~seq:7 Bytes.empty) with Pdu.payload = v }
  in
  let expected = Sdu.protect (Pdu.encode p) in
  let first = Pdu.encode_frame p in
  Alcotest.(check bool) "first encode is in place" true (first == v.Pdu.buf);
  check Alcotest.bytes "first frame" expected first;
  let again = Pdu.encode_frame p in
  Alcotest.(check bool) "second encode is a fresh frame" true (again != first);
  check Alcotest.bytes "second frame" expected again;
  match Pdu.decode_sub again ~len:(Bytes.length again - Sdu.overhead) with
  | Ok q ->
    Alcotest.(check bool) "payload views the frame" true (q.Pdu.payload.Pdu.buf == again);
    check Alcotest.bytes "payload" (Bytes.of_string "hello") (Pdu.bytes_of_view q.Pdu.payload)
  | Error e -> Alcotest.fail e

let pdu_gen =
  QCheck.Gen.(
    map
      (fun (ty, (d, s, dc, sc), (q, sq, a, w), payload) ->
        Pdu.make
          ~pdu_type:(match ty with 0 -> Pdu.Dtp | 1 -> Pdu.Ack | 2 -> Pdu.Mgmt | _ -> Pdu.Hello)
          ~dst_addr:d ~src_addr:s ~dst_cep:dc ~src_cep:sc ~qos_id:q ~seq:sq ~ack:a
          ~window:w
          (Bytes.of_string payload))
      (tup4 (int_range 0 3)
         (tup4 (int_range 0 100000) (int_range 0 100000) (int_range 0 9999) (int_range 0 9999))
         (tup4 (int_range 0 65535) (int_range 0 1000000) (int_range 0 1000000) (int_range 0 65535))
         (string_size (int_range 0 200))))

let prop_pdu_roundtrip =
  QCheck.Test.make ~name:"pdu encode/decode roundtrip" ~count:300
    (QCheck.make pdu_gen)
    (fun p -> match Pdu.decode (Pdu.encode p) with Ok q -> plain p = plain q | Error _ -> false)

(* ---------- Sdu_protection ---------- *)

let test_crc32_known_vector () =
  (* The standard CRC-32 check value. *)
  check Alcotest.int "crc32(123456789)" 0xCBF43926
    (Sdu.crc32 (Bytes.of_string "123456789"))

(* Reference: the plain byte-at-a-time CRC-32 that both kernels, the
   carry-less-multiply fold and the slicing-by-8 loop, must reproduce
   exactly. *)
let crc32_bytewise =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
        done;
        !c)
  in
  fun data ~pos ~len ->
    let crc = ref 0xFFFFFFFF in
    for i = pos to pos + len - 1 do
      crc := table.((!crc lxor Char.code (Bytes.get data i)) land 0xFF) lxor (!crc lsr 8)
    done;
    !crc lxor 0xFFFFFFFF

let random_bytes rs n = Bytes.init n (fun _ -> Char.chr (Random.State.int rs 256))

(* Every length 0-200 at every 16-byte misalignment: both sides of the
   fold's 64-byte threshold, every 16-byte remainder it leaves to the
   slicing loop (0-1 words plus 0-7 bytes), and one to three 64-byte
   blocks. *)
let test_crc32_short_lengths () =
  let rs = Random.State.make [| 13 |] in
  for len = 0 to 200 do
    for pos = 0 to 15 do
      let b = random_bytes rs (pos + len + 3) in
      check Alcotest.int
        (Printf.sprintf "len %d pos %d" len pos)
        (crc32_bytewise b ~pos ~len) (Sdu.crc32_sub b ~pos ~len)
    done
  done

let prop_crc32_matches_bytewise =
  let gen =
    QCheck.Gen.(
      map
        (fun (s, pre, post) ->
          let b = Bytes.of_string s in
          let n = Bytes.length b in
          let pos = min pre n in
          (b, pos, max 0 (n - pos - post)))
        (triple (string_size (int_range 0 3000)) (int_range 0 15) (int_range 0 15)))
  in
  QCheck.Test.make ~name:"crc32_sub = bytewise reference" ~count:400
    (QCheck.make
       ~print:(fun (b, pos, len) ->
         Printf.sprintf "length %d pos %d len %d" (Bytes.length b) pos len)
       gen)
    (fun (b, pos, len) -> Sdu.crc32_sub b ~pos ~len = crc32_bytewise b ~pos ~len)

let test_crc32_sub_bounds () =
  let rejects name b ~pos ~len =
    match Sdu.crc32_sub b ~pos ~len with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "len past end" (Bytes.create 4) ~pos:0 ~len:100;
  rejects "negative len" (Bytes.create 4) ~pos:0 ~len:(-1);
  rejects "negative pos" (Bytes.create 4) ~pos:(-1) ~len:2;
  rejects "pos past end" (Bytes.create 4) ~pos:5 ~len:0;
  rejects "range past end" (Bytes.create 16) ~pos:9 ~len:8;
  check Alcotest.int "empty range at end" 0 (Sdu.crc32_sub (Bytes.create 4) ~pos:4 ~len:0)

let prop_seal_verify_roundtrip =
  QCheck.Test.make ~name:"seal -> verify_len roundtrip, bit flip caught" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 3000)) (int_bound 100_000))
    (fun (s, flip) ->
      let frame = Bytes.extend (Bytes.of_string s) 0 Sdu.overhead in
      Sdu.seal frame;
      let ok = Sdu.verify_len frame = Some (String.length s) in
      let bit = flip mod (8 * Bytes.length frame) in
      let i = bit / 8 in
      Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor (1 lsl (bit mod 8))));
      ok && Sdu.verify_len frame = None)

let test_sdu_roundtrip_and_corruption () =
  let body = Bytes.of_string "some frame body" in
  let f = Sdu.protect body in
  check Alcotest.int "overhead" (Bytes.length body + Sdu.overhead) (Bytes.length f);
  (match Sdu.verify f with
   | Some b -> check Alcotest.bytes "roundtrip" body b
   | None -> Alcotest.fail "verify failed");
  (* Corrupt each of a few positions. *)
  List.iter
    (fun pos ->
      let g = Bytes.copy f in
      Bytes.set g pos (Char.chr (Char.code (Bytes.get g pos) lxor 0x40));
      match Sdu.verify g with
      | Some _ -> Alcotest.fail "accepted corrupt frame"
      | None -> ())
    [ 0; 5; Bytes.length f - 1 ];
  (* Too short. *)
  match Sdu.verify (Bytes.of_string "ab") with
  | Some _ -> Alcotest.fail "accepted short frame"
  | None -> ()

(* ---------- Rib ---------- *)

let test_rib_crud () =
  let rib = Rib.create () in
  Alcotest.(check bool) "absent" false (Rib.exists rib "/a");
  Rib.write rib "/a" (Rib.V_int 1);
  check Alcotest.(option int) "read_int" (Some 1) (Rib.read_int rib "/a");
  check Alcotest.(option string) "read_str wrong type" None (Rib.read_str rib "/a");
  Rib.write rib "/a" (Rib.V_int 2);
  check Alcotest.(option int) "overwrite" (Some 2) (Rib.read_int rib "/a");
  Alcotest.(check bool) "delete" true (Rib.delete rib "/a");
  Alcotest.(check bool) "delete again" false (Rib.delete rib "/a");
  check Alcotest.int "size" 0 (Rib.size rib)

let test_rib_children () =
  let rib = Rib.create () in
  Rib.write rib "/dir/a" (Rib.V_int 1);
  Rib.write rib "/dir/b" (Rib.V_int 2);
  Rib.write rib "/dir/b/nested" (Rib.V_int 3);
  Rib.write rib "/other" (Rib.V_int 4);
  check Alcotest.(list string) "one level" [ "/dir/a"; "/dir/b" ] (Rib.children rib "/dir");
  check Alcotest.int "dump size" 4 (List.length (Rib.dump rib))

let rib_value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Rib.V_str s) string;
        map (fun i -> Rib.V_int i) int;
        map (fun f -> Rib.V_float f) (float_bound_inclusive 1e9);
        map (fun b -> Rib.V_bool b) bool;
        map (fun s -> Rib.V_bytes (Bytes.of_string s)) string;
      ])

let prop_rib_value_roundtrip =
  QCheck.Test.make ~name:"rib value codec roundtrip" ~count:300
    (QCheck.make rib_value_gen)
    (fun v ->
      let w = Rina_util.Codec.Writer.create () in
      Rib.encode_value w v;
      let r = Rina_util.Codec.Reader.create (Rina_util.Codec.Writer.contents w) in
      let out = Rib.decode_value r in
      Rib.value_equal v out)

(* ---------- Riep ---------- *)

let riep_opcodes =
  Riep.
    [
      M_connect; M_connect_r; M_release; M_create; M_create_r; M_delete; M_delete_r;
      M_read; M_read_r; M_write; M_start; M_stop;
    ]

let test_riep_roundtrip_all_opcodes () =
  List.iter
    (fun opcode ->
      let m =
        Riep.make ~opcode ~obj_class:"flow" ~obj_name:"/x/y"
          ~obj_value:(Rib.V_str "v") ~invoke_id:42 ~result:3 ~result_reason:"why" ()
      in
      match Riep.decode (Riep.encode m) with
      | Ok m' -> Alcotest.(check bool) "roundtrip" true (m = m')
      | Error e -> Alcotest.fail e)
    riep_opcodes

let test_riep_response_mapping () =
  Alcotest.(check bool) "create->create_r" true
    (Riep.response_opcode Riep.M_create = Some Riep.M_create_r);
  Alcotest.(check bool) "write has none" true (Riep.response_opcode Riep.M_write = None);
  Alcotest.(check bool) "create_r is response" true
    (Riep.is_response (Riep.make ~opcode:Riep.M_create_r ()));
  Alcotest.(check bool) "write not response" false
    (Riep.is_response (Riep.make ~opcode:Riep.M_write ()))

(* ---------- Qos ---------- *)

let test_qos_cubes () =
  check Alcotest.int "4 standard cubes" 4 (List.length Qos.standard_cubes);
  (match Qos.find Qos.standard_cubes 1 with
   | Some c -> Alcotest.(check bool) "reliable cube ordered" true c.Qos.in_order
   | None -> Alcotest.fail "cube 1 missing");
  Alcotest.(check bool) "unknown id" true (Qos.find Qos.standard_cubes 99 = None);
  List.iter
    (fun c ->
      let w = Rina_util.Codec.Writer.create () in
      Qos.encode w c;
      let r = Rina_util.Codec.Reader.create (Rina_util.Codec.Writer.contents w) in
      Alcotest.(check bool) "qos codec roundtrip" true (Qos.decode r = c))
    Qos.standard_cubes

(* ---------- Policy / Policy_lang ---------- *)

let test_policy_lang_empty_is_default () =
  match Policy_lang.parse "" with
  | Ok p -> Alcotest.(check bool) "default" true (p = Policy.default)
  | Error e -> Alcotest.fail e

let test_policy_lang_keys_apply () =
  let spec =
    "[efcp]\n\
     window = 8\n\
     mtu = 500\n\
     rtx = gbn\n\
     cc = off\n\
     ack_delay = 0.5\n\
     [scheduler]\n\
     kind = drr\n\
     quantum = 900\n\
     [routing]\n\
     hello_interval = 2.5\n\
     refresh_ticks = 3\n\
     [auth]\n\
     kind = password\n\
     secret = hunter2\n\
     [dif]\n\
     max_ttl = 7\n"
  in
  match Policy_lang.parse spec with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check Alcotest.int "window" 8 p.Policy.efcp.Policy.window;
    check Alcotest.int "mtu" 500 p.Policy.efcp.Policy.mtu;
    Alcotest.(check bool) "gbn" true (p.Policy.efcp.Policy.rtx_strategy = Policy.Go_back_n);
    Alcotest.(check bool) "cc off" false p.Policy.efcp.Policy.congestion_control;
    check (Alcotest.float 1e-9) "ack_delay" 0.5 p.Policy.efcp.Policy.ack_delay;
    Alcotest.(check bool) "drr" true (p.Policy.scheduler = Policy.Drr 900);
    check (Alcotest.float 1e-9) "hello" 2.5 p.Policy.routing.Policy.hello_interval;
    check Alcotest.int "refresh" 3 p.Policy.routing.Policy.refresh_ticks;
    Alcotest.(check bool) "auth" true (p.Policy.auth = Policy.Auth_password "hunter2");
    check Alcotest.int "ttl" 7 p.Policy.max_ttl

let expect_error spec =
  match Policy_lang.parse spec with
  | Ok _ -> Alcotest.fail ("accepted bad spec: " ^ spec)
  | Error e -> Alcotest.(check bool) "mentions a line" true (String.length e > 0)

let test_policy_lang_errors () =
  expect_error "window = 5";  (* key outside section *)
  expect_error "[bogus]\n";
  expect_error "[efcp]\nwindow = minus-three";
  expect_error "[efcp]\nwindow = 0";
  expect_error "[efcp]\nrtx = sometimes";
  expect_error "[efcp]\nnot_a_key = 1";
  expect_error "[scheduler]\nkind = lottery";
  expect_error "[auth]\nkind = password";  (* missing secret *)
  expect_error "[efcp]\njust some words"

(* Resolution errors name the [kind] line, not the line after the end
   of the spec. *)
let test_policy_lang_error_lines () =
  List.iter
    (fun (spec, line) ->
      match Policy_lang.parse spec with
      | Ok _ -> Alcotest.fail ("accepted bad spec: " ^ spec)
      | Error e ->
        Alcotest.(check bool) (e ^ " names " ^ line) true
          (String.starts_with ~prefix:(line ^ ":") e))
    [
      ("[auth]\nkind = password\n", "line 2");
      ("[scheduler]\nkind = lottery\n\n\n", "line 2");
      ("[auth]\nkind = password\n[efcp]\nwindow = 4\n", "line 2");
    ]

(* The scheduler payload may precede its kind. *)
let test_policy_lang_order_independent () =
  match Policy_lang.parse "[scheduler]\nquantum = 900\nkind = drr\n" with
  | Ok p -> Alcotest.(check bool) "drr 900" true (p.Policy.scheduler = Policy.Drr 900)
  | Error e -> Alcotest.fail e

(* %g printed init_rto as 0.123457; the float must come back exactly. *)
let test_policy_lang_float_lossless () =
  match Policy_lang.parse "[efcp]\ninit_rto = 0.1234567891\n" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check Alcotest.bool "init_rto printed in full" true
      (List.mem "init_rto = 0.1234567891"
         (String.split_on_char '\n' (Policy_lang.to_string p)))

let test_policy_lang_roundtrip () =
  List.iter
    (fun spec ->
      match Policy_lang.parse spec with
      | Error e -> Alcotest.fail e
      | Ok p -> (
        match Policy_lang.parse (Policy_lang.to_string p) with
        | Ok p' -> Alcotest.(check bool) "to_string roundtrips" true (p = p')
        | Error e -> Alcotest.fail ("reparse: " ^ e)))
    [
      "";
      "[efcp]\nwindow = 1";
      "[scheduler]\nkind = priority";
      "[scheduler]\nkind = drr\nquantum = 512";
      "[auth]\nkind = password\nsecret = p";
      "[efcp]\nrtx = none\ncc = off";
    ]

let test_policy_lang_comments_and_blanks () =
  match Policy_lang.parse "# a comment\n\n[efcp]\nwindow = 3 # inline\n" with
  | Ok p -> check Alcotest.int "window" 3 p.Policy.efcp.Policy.window
  | Error e -> Alcotest.fail e

let test_efcp_for_qos () =
  let p = Policy.default in
  Alcotest.(check bool) "reliable keeps strategy" true
    ((Policy.efcp_for_qos p Qos.reliable).Policy.rtx_strategy = Policy.Selective_repeat);
  Alcotest.(check bool) "best effort gets no_rtx" true
    ((Policy.efcp_for_qos p Qos.best_effort).Policy.rtx_strategy = Policy.No_rtx)

(* ---------- Delimiting ---------- *)

let test_delimiting_basic () =
  let sdu = Bytes.of_string (String.init 2500 (fun i -> Char.chr (i mod 256))) in
  let frags = Delimiting.fragment ~mtu:1000 sdu in
  check Alcotest.int "3 fragments" 3 (List.length frags);
  List.iter
    (fun f ->
      Alcotest.(check bool) "within mtu+overhead" true
        (f.Pdu.len <= 1000 + Delimiting.overhead))
    frags;
  let r = Delimiting.create_reassembler () in
  let out = List.filter_map (Delimiting.push r) frags in
  match out with
  | [ whole ] -> check Alcotest.bytes "reassembled" sdu whole
  | _ -> Alcotest.fail "expected one SDU"

let test_delimiting_empty_sdu () =
  let frags = Delimiting.fragment ~mtu:100 Bytes.empty in
  check Alcotest.int "one empty fragment" 1 (List.length frags);
  let r = Delimiting.create_reassembler () in
  match List.filter_map (Delimiting.push r) frags with
  | [ whole ] -> check Alcotest.int "empty" 0 (Bytes.length whole)
  | _ -> Alcotest.fail "expected one SDU"

let test_delimiting_discard_on_new_first () =
  let r = Delimiting.create_reassembler () in
  let frags_a = Delimiting.fragment ~mtu:4 (Bytes.of_string "aaaaaaaa") in
  let frags_b = Delimiting.fragment ~mtu:4 (Bytes.of_string "bbbb") in
  (* Deliver only the first fragment of A, then all of B. *)
  (match frags_a with
   | first :: _ -> ignore (Delimiting.push r first)
   | [] -> Alcotest.fail "no fragments");
  let out = List.filter_map (Delimiting.push r) frags_b in
  check Alcotest.int "discarded count" 1 (Delimiting.discarded r);
  match out with
  | [ b ] -> check Alcotest.bytes "B survives" (Bytes.of_string "bbbb") b
  | _ -> Alcotest.fail "expected B"

let test_delimiting_middle_without_first_ignored () =
  let r = Delimiting.create_reassembler () in
  match Delimiting.fragment ~mtu:2 (Bytes.of_string "abcdef") with
  | _ :: middle :: _ ->
    Alcotest.(check bool) "middle alone yields nothing" true
      (Delimiting.push r middle = None)
  | _ -> Alcotest.fail "expected >2 fragments"

let test_delimiting_empty_fragment_dropped () =
  let r = Delimiting.create_reassembler () in
  Alcotest.(check bool) "empty fragment yields nothing" true
    (Delimiting.push r Pdu.empty_view = None);
  check Alcotest.int "counted as discarded" 1 (Delimiting.discarded r);
  match List.filter_map (Delimiting.push r) (Delimiting.fragment ~mtu:4 (Bytes.of_string "after")) with
  | [ sdu ] -> check Alcotest.bytes "next SDU intact" (Bytes.of_string "after") sdu
  | _ -> Alcotest.fail "expected one SDU"

let prop_delimiting_roundtrip =
  QCheck.Test.make ~name:"delimit/reassemble roundtrip" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 5000)) (int_range 1 1500))
    (fun (s, mtu) ->
      let sdu = Bytes.of_string s in
      let r = Delimiting.create_reassembler () in
      match List.filter_map (Delimiting.push r) (Delimiting.fragment ~mtu sdu) with
      | [ whole ] -> Bytes.equal whole sdu
      | _ -> false)

(* ---------- Routing ---------- *)

let lsa origin seq neighbors = { Routing.Lsa.origin; seq; neighbors }

let test_routing_install_versions () =
  let db = Routing.create () in
  Alcotest.(check bool) "new" true (Routing.install db (lsa 1 1 [ (2, 1.) ]));
  Alcotest.(check bool) "same seq rejected" false (Routing.install db (lsa 1 1 []));
  Alcotest.(check bool) "older rejected" false (Routing.install db (lsa 1 0 []));
  Alcotest.(check bool) "newer accepted" true (Routing.install db (lsa 1 2 []));
  check Alcotest.(list int) "origins" [ 1 ] (Routing.origins db);
  Alcotest.(check bool) "withdraw" true (Routing.withdraw db 1);
  Alcotest.(check bool) "withdraw absent" false (Routing.withdraw db 1)

let line_db n =
  let db = Routing.create () in
  for i = 1 to n do
    let nbrs =
      List.filter_map
        (fun j -> if j >= 1 && j <= n then Some (j, 1.0) else None)
        [ i - 1; i + 1 ]
    in
    ignore (Routing.install db (lsa i 1 nbrs))
  done;
  db

let test_routing_spf_line () =
  let db = line_db 5 in
  let nh = Routing.spf db ~source:1 in
  check Alcotest.int "4 destinations" 4 (Hashtbl.length nh);
  List.iter
    (fun dst ->
      match Hashtbl.find_opt nh dst with
      | Some (hop, cost) ->
        check Alcotest.int "next hop is 2" 2 hop;
        check (Alcotest.float 1e-9) "cost is hops" (float_of_int (dst - 1)) cost
      | None -> Alcotest.fail "unreachable")
    [ 2; 3; 4; 5 ]

let test_routing_spf_two_way_check () =
  let db = Routing.create () in
  (* 1 claims 2 as neighbour but 2 does not reciprocate. *)
  ignore (Routing.install db (lsa 1 1 [ (2, 1.) ]));
  ignore (Routing.install db (lsa 2 1 []));
  let nh = Routing.spf db ~source:1 in
  check Alcotest.int "one-way edge unusable" 0 (Hashtbl.length nh)

let test_routing_spf_prefers_cheap_path () =
  let db = Routing.create () in
  (* 1-2-4 costs 1+1; 1-3-4 costs 5+1. *)
  ignore (Routing.install db (lsa 1 1 [ (2, 1.); (3, 5.) ]));
  ignore (Routing.install db (lsa 2 1 [ (1, 1.); (4, 1.) ]));
  ignore (Routing.install db (lsa 3 1 [ (1, 5.); (4, 1.) ]));
  ignore (Routing.install db (lsa 4 1 [ (2, 1.); (3, 1.) ]));
  let nh = Routing.spf db ~source:1 in
  (match Hashtbl.find_opt nh 4 with
   | Some (hop, cost) ->
     check Alcotest.int "via 2" 2 hop;
     check (Alcotest.float 1e-9) "cost 2" 2. cost
   | None -> Alcotest.fail "4 unreachable");
  (* source absent from results *)
  Alcotest.(check bool) "no self entry" true (Hashtbl.find_opt nh 1 = None)

let test_routing_spf_disconnected () =
  let db = Routing.create () in
  ignore (Routing.install db (lsa 1 1 [ (2, 1.) ]));
  ignore (Routing.install db (lsa 2 1 [ (1, 1.) ]));
  ignore (Routing.install db (lsa 8 1 [ (9, 1.) ]));
  ignore (Routing.install db (lsa 9 1 [ (8, 1.) ]));
  let nh = Routing.spf db ~source:1 in
  Alcotest.(check bool) "island unreachable" true (Hashtbl.find_opt nh 8 = None)

let test_routing_lsa_codec () =
  let l = lsa 42 17 [ (1, 1.5); (2, 2.5); (100, 0.25) ] in
  match Routing.Lsa.decode (Routing.Lsa.encode l) with
  | Ok l' -> Alcotest.(check bool) "roundtrip" true (l = l')
  | Error e -> Alcotest.fail e

let test_routing_lsa_costs () =
  (* Dijkstra needs finite, non-negative weights: an LSA carrying any
     other cost is malformed. *)
  let decodes cost =
    Result.is_ok (Routing.Lsa.decode (Routing.Lsa.encode (lsa 1 1 [ (2, 1.); (3, cost) ])))
  in
  List.iter
    (fun c -> Alcotest.(check bool) (Printf.sprintf "%g rejected" c) false (decodes c))
    [ Float.nan; Float.infinity; Float.neg_infinity; -1. ];
  List.iter
    (fun c -> Alcotest.(check bool) (Printf.sprintf "%g accepted" c) true (decodes c))
    [ 0.; 0.25; 1.; 1e300 ]

let prop_spf_paths_loop_free =
  (* On any connected random symmetric graph, hop-by-hop forwarding
     along each node's SPF next hops must reach every destination
     without ever looping. *)
  QCheck.Test.make ~name:"spf forwarding is loop-free and complete" ~count:60
    QCheck.(pair (int_range 3 14) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rina_util.Prng.create seed in
      (* Spanning chain + random extra symmetric edges. *)
      let adj = Array.make (n + 1) [] in
      let add a b =
        if a <> b && not (List.mem_assoc b adj.(a)) then begin
          adj.(a) <- (b, 1.0) :: adj.(a);
          adj.(b) <- (a, 1.0) :: adj.(b)
        end
      in
      for i = 1 to n - 1 do
        add i (i + 1)
      done;
      for _ = 1 to n do
        add (1 + Rina_util.Prng.int rng n) (1 + Rina_util.Prng.int rng n)
      done;
      let db = Routing.create () in
      for i = 1 to n do
        ignore (Routing.install db (lsa i 1 adj.(i)))
      done;
      let tables = Array.init (n + 1) (fun i -> if i = 0 then Hashtbl.create 1 else Routing.spf db ~source:i) in
      let ok = ref true in
      for src = 1 to n do
        for dst = 1 to n do
          if src <> dst then begin
            let rec walk node hops =
              if hops > n then ok := false
              else if node <> dst then
                match Hashtbl.find_opt tables.(node) dst with
                | Some (next, _) -> walk next (hops + 1)
                | None -> ok := false
            in
            walk src 0
          end
        done
      done;
      !ok)

(* The SPF that ran over the LSA table itself before the dense index:
   Dijkstra with per-run hash tables, kept as the reference that
   [Routing.spf] and [Routing.spf_multi] must reproduce bit for bit,
   insertion order included. *)
module Oracle = struct
  let db_of r =
    let db = Hashtbl.create 32 in
    List.iter (fun (l : Routing.Lsa.t) -> Hashtbl.replace db l.Routing.Lsa.origin l) (Routing.all r);
    db

  let usable_neighbors db (lsa : Routing.Lsa.t) =
    List.filter
      (fun (b, _) ->
        match Hashtbl.find_opt db b with
        | None -> false
        | Some back ->
          List.exists (fun (a, _) -> a = lsa.Routing.Lsa.origin) back.Routing.Lsa.neighbors)
      lsa.Routing.Lsa.neighbors

  let spf r ~source =
    let db = db_of r in
    let result : Routing.next_hops = Hashtbl.create 32 in
    match Hashtbl.find_opt db source with
    | None -> result
    | Some _ ->
      let heap = Rina_util.Heap.create ~filler:(Types.no_address, Types.no_address) in
      let dist : (Types.address, float) Hashtbl.t = Hashtbl.create 32 in
      Hashtbl.replace dist source 0.;
      Rina_util.Heap.push heap 0. (source, Types.no_address);
      let finished : (Types.address, unit) Hashtbl.t = Hashtbl.create 32 in
      let continue = ref true in
      while !continue do
        match Rina_util.Heap.pop heap with
        | None -> continue := false
        | Some (cost, (node, first_hop)) ->
          if not (Hashtbl.mem finished node) then begin
            Hashtbl.replace finished node ();
            if node <> source then Hashtbl.replace result node (first_hop, cost);
            match Hashtbl.find_opt db node with
            | None -> ()
            | Some lsa ->
              List.iter
                (fun (next, edge_cost) ->
                  if not (Hashtbl.mem finished next) then begin
                    let ncost = cost +. edge_cost in
                    let better =
                      match Hashtbl.find_opt dist next with
                      | None -> true
                      | Some d -> ncost < d
                    in
                    if better then begin
                      Hashtbl.replace dist next ncost;
                      let fh = if node = source then next else first_hop in
                      Rina_util.Heap.push heap ncost (next, fh)
                    end
                  end)
                (usable_neighbors db lsa)
          end
      done;
      result

  let spf_multi r ~source =
    let db = db_of r in
    let result : (Types.address, Types.address list * float) Hashtbl.t =
      Hashtbl.create 32
    in
    match Hashtbl.find_opt db source with
    | None -> result
    | Some _ ->
      let heap = Rina_util.Heap.create ~filler:Types.no_address in
      let dist : (Types.address, float) Hashtbl.t = Hashtbl.create 32 in
      let fhs : (Types.address, Types.address list) Hashtbl.t = Hashtbl.create 32 in
      Hashtbl.replace dist source 0.;
      Rina_util.Heap.push heap 0. source;
      let finished : (Types.address, unit) Hashtbl.t = Hashtbl.create 32 in
      let continue = ref true in
      while !continue do
        match Rina_util.Heap.pop heap with
        | None -> continue := false
        | Some (cost, node) ->
          if not (Hashtbl.mem finished node) then begin
            Hashtbl.replace finished node ();
            if node <> source then
              Hashtbl.replace result node
                ( (match Hashtbl.find_opt fhs node with
                  | Some l -> List.sort_uniq compare l
                  | None -> []),
                  cost );
            match Hashtbl.find_opt db node with
            | None -> ()
            | Some lsa ->
              List.iter
                (fun (next, edge_cost) ->
                  if not (Hashtbl.mem finished next) then begin
                    let ncost = cost +. edge_cost in
                    let nfh =
                      if node = source then [ next ]
                      else match Hashtbl.find_opt fhs node with Some l -> l | None -> []
                    in
                    match Hashtbl.find_opt dist next with
                    | Some d when ncost > d -> ()
                    | Some d when ncost = d ->
                      let cur = match Hashtbl.find_opt fhs next with Some l -> l | None -> [] in
                      Hashtbl.replace fhs next (List.sort_uniq compare (nfh @ cur))
                    | Some _ | None ->
                      Hashtbl.replace dist next ncost;
                      Hashtbl.replace fhs next nfh;
                      Rina_util.Heap.push heap ncost next
                  end)
                (usable_neighbors db lsa)
          end
      done;
      result
end

(* One step of an LSDB history over origins 1..n; neighbours range over
   1..n+2, so some are never origins. *)
type lsdb_op =
  | Install of int * int * (int * float) list  (* origin, seq offset, neighbours *)
  | Refresh of int  (* same neighbours, next seq *)
  | Withdraw of int
  | Clear

let pp_lsdb_op = function
  | Install (o, d, ns) ->
    Printf.sprintf "install %d seq%+d [%s]" o d
      (String.concat "; " (List.map (fun (a, c) -> Printf.sprintf "%d/%g" a c) ns))
  | Refresh o -> Printf.sprintf "refresh %d" o
  | Withdraw o -> Printf.sprintf "withdraw %d" o
  | Clear -> "clear"

let prop_spf_matches_oracle =
  let gen =
    let open QCheck.Gen in
    let* n = int_range 2 12 in
    let origin = int_range 1 n in
    (* Few distinct costs, zero included, so equal-cost ties are common. *)
    let nbr = pair (int_range 1 (n + 2)) (oneofl [ 0.; 0.5; 1.; 1.; 1.; 2.; 3. ]) in
    let op =
      frequency
        [
          (8, map3 (fun o d ns -> Install (o, d, ns)) origin (int_range (-1) 2)
                (list_size (int_bound 8) nbr));
          (3, map (fun o -> Refresh o) origin);
          (2, map (fun o -> Withdraw o) origin);
          (1, return Clear);
        ]
    in
    pair (return n) (list_size (int_range 1 30) op)
  in
  let print (n, ops) =
    Printf.sprintf "n=%d\n%s" n (String.concat "\n" (List.map pp_lsdb_op ops))
  in
  let entries tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let snapshot r =
    List.sort compare
      (List.map (fun (l : Routing.Lsa.t) -> (l.Routing.Lsa.origin, l.Routing.Lsa.neighbors)) (Routing.all r))
  in
  QCheck.Test.make ~name:"dense spf equals the reference; graph version exact" ~count:150
    (QCheck.make ~print gen)
    (fun (n, ops) ->
      let r = Routing.create () in
      let seq o = match Routing.lsa_of r o with Some l -> l.Routing.Lsa.seq | None -> 0 in
      List.for_all
        (fun op ->
          let before = snapshot r and version = Routing.graph_version r in
          (match op with
          | Install (o, d, ns) -> ignore (Routing.install r (lsa o (seq o + d) ns))
          | Refresh o -> (
            match Routing.lsa_of r o with
            | Some l -> ignore (Routing.install r { l with Routing.Lsa.seq = l.Routing.Lsa.seq + 1 })
            | None -> ())
          | Withdraw o -> ignore (Routing.withdraw r o)
          | Clear -> Routing.clear r);
          let moved = Routing.graph_version r <> version in
          let changed = snapshot r <> before in
          if moved <> changed then
            QCheck.Test.fail_reportf "after %s: version moved %b, graph changed %b"
              (pp_lsdb_op op) moved changed;
          List.for_all
            (fun source ->
              entries (Routing.spf r ~source) = entries (Oracle.spf r ~source)
              && entries (Routing.spf_multi r ~source) = entries (Oracle.spf_multi r ~source)
              || QCheck.Test.fail_reportf "after %s: tables from %d differ" (pp_lsdb_op op) source)
            (List.init (n + 3) Fun.id))
        ops)

let test_routing_index_bounded () =
  (* A member that restarts takes a fresh address each time: its old
     address stays named by its neighbour until that neighbour's next
     LSA, and its own LSA is withdrawn.  The index must reuse those
     slots rather than grow with every address ever seen. *)
  let db = Routing.create () in
  ignore (Routing.install db (lsa 1 1 [ (2, 1.) ]));
  ignore (Routing.install db (lsa 2 1 [ (1, 1.) ]));
  for i = 1 to 1000 do
    let fresh = 1000 + i in
    ignore (Routing.install db (lsa fresh 1 [ (1, 1.) ]));
    ignore (Routing.install db (lsa 1 (i + 1) [ (2, 1.); (fresh, 1.) ]));
    if i > 1 then ignore (Routing.withdraw db (fresh - 1))
  done;
  check Alcotest.int "three origins" 3 (Routing.size db);
  check Alcotest.int "slots stay bounded" 4 (Routing.index_size db);
  (match Hashtbl.find_opt (Routing.spf db ~source:2) 2000 with
  | Some (hop, cost) ->
    check Alcotest.int "latest address via 1" 1 hop;
    check (Alcotest.float 0.) "two hops" 2. cost
  | None -> Alcotest.fail "latest address unreachable");
  Routing.clear db;
  check Alcotest.int "clear empties the index" 0 (Routing.index_size db)

let prop_policy_lang_roundtrip_random =
  (* Every key of the grammar, each with a value drawn within the bounds
     its table row declares; the parsed policy must survive
     to_string/parse exactly (floats included). *)
  let value = function
    | Policy_lang.Int min ->
      QCheck.Gen.(map (fun n -> string_of_int (min + n)) (int_bound 100_000))
    | Policy_lang.Float { lo; open_lo; hi } ->
      let hi = if hi = Float.infinity then lo +. 1e4 else hi in
      QCheck.Gen.map
        (fun f -> Printf.sprintf "%.17g" (if open_lo && f <= lo then hi else f))
        (QCheck.Gen.float_range lo hi)
    | Policy_lang.Enum choices -> QCheck.Gen.oneofl choices
    | Policy_lang.Str ->
      QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
  in
  let gen =
    QCheck.Gen.(
      map (String.concat "")
        (flatten_l
           (List.map
              (fun (section, key, kind) ->
                map (Printf.sprintf "[%s]\n%s = %s\n" section key) (value kind))
              Policy_lang.keys)))
  in
  QCheck.Test.make ~name:"policy_lang to_string/parse roundtrip (random)" ~count:150
    (QCheck.make ~print:Fun.id gen)
    (fun text ->
      match Policy_lang.parse text with
      | Error e -> QCheck.Test.fail_report e
      | Ok p -> Policy_lang.parse (Policy_lang.to_string p) = Ok p)

(* ---------- Shim ---------- *)

let test_shim_tag_filtering () =
  let a, b = Rina_sim.Chan.pair () in
  let wa = Shim.wrap ~dif:"net-1" a in
  let wb = Shim.wrap ~dif:"net-1" b in
  let foreign = Shim.wrap ~dif:"net-2" b in
  let got = ref [] and foreign_got = ref [] in
  wb.Rina_sim.Chan.set_receiver (fun f -> got := Bytes.to_string f :: !got);
  wa.Rina_sim.Chan.send (Bytes.of_string "hello");
  check Alcotest.(list string) "same dif passes" [ "hello" ] !got;
  (* A frame from another DIF on the same wire is filtered. *)
  foreign.Rina_sim.Chan.set_receiver (fun f -> foreign_got := Bytes.to_string f :: !foreign_got);
  wa.Rina_sim.Chan.send (Bytes.of_string "ssh");
  check Alcotest.(list string) "foreign filtered" [] !foreign_got;
  Alcotest.(check bool) "tags differ" true
    (Shim.tag_of_dif "net-1" <> Shim.tag_of_dif "net-2")

(* ---------- management payload codecs ---------- *)

let u32_gen = QCheck.Gen.int_bound 0xFFFFFFFF

let hello_gen = QCheck.Gen.(triple small_string u32_gen u32_gen)

let flow_req_gen =
  let open QCheck.Gen in
  let apn_gen =
    map2
      (fun name instance -> Types.apn ~instance name)
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
      (string_size ~gen:(char_range '0' '9') (int_range 1 3))
  in
  map
    (fun ((fr_src_app, fr_dst_app), fr_qos_id, (fr_src_addr, fr_src_cep)) ->
      { Flow_alloc.fr_src_app; fr_dst_app; fr_qos_id; fr_src_addr; fr_src_cep })
    (triple (pair apn_gen apn_gen) (int_bound 0xFFFF) (pair u32_gen u32_gen))

let snapshot_gen =
  let open QCheck.Gen in
  triple (int_range 1 0xFFFFFFFF)
    (list_size (int_bound 5) (pair small_string rib_value_gen))
    (list_size (int_bound 4)
       (map
          (fun (origin, seq, neighbors) -> lsa origin seq neighbors)
          (triple u32_gen u32_gen
             (list_size (int_bound 4) (pair u32_gen (float_bound_inclusive 100.))))))

let prop_hello_roundtrip =
  QCheck.Test.make ~name:"hello encode/decode roundtrip" ~count:300
    (QCheck.make hello_gen)
    (fun (name, addr, token) ->
      Enrollment.decode_hello (Enrollment.encode_hello ~name ~addr ~token)
      = Ok (name, addr, token))

let prop_flow_req_roundtrip =
  QCheck.Test.make ~name:"flow request encode/decode roundtrip" ~count:300
    (QCheck.make flow_req_gen)
    (fun fr -> Flow_alloc.decode_flow_req (Flow_alloc.encode_flow_req fr) = Ok fr)

(* A joiner must never take address 0, [Types.no_address]. *)
let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot encode/decode roundtrip, grant 0 refused" ~count:300
    (QCheck.make snapshot_gen)
    (fun (granted, entries, lsas) ->
      let same_entries =
        List.equal (fun (p, v) (p', v') -> String.equal p p' && Rib.value_equal v v')
      in
      Result.is_error
        (Enrollment.decode_snapshot (Enrollment.encode_snapshot ~granted:0 ~entries ~lsas))
      &&
      match Enrollment.decode_snapshot (Enrollment.encode_snapshot ~granted ~entries ~lsas) with
      | Ok (g, e, l) -> g = granted && same_entries e entries && l = lsas
      | Error _ -> false)

(* ---------- wire decoders ---------- *)

(* Frames arrive off (N-1) channels that may corrupt, cut short or
   forge them, so every wire decoder must be total: arbitrary bytes,
   and valid encodings with 1-4 bytes overwritten or cut short, give
   [Ok] or [Error] — never an exception.  [decode_sub] and
   [decode_header] are tried at every [len] up to the buffer length. *)
let prop_wire_decoders_total =
  let open QCheck.Gen in
  let mangle base =
    let n = Bytes.length base in
    let* edits = list_size (int_range 1 4) (pair (int_bound (max 0 (n - 1))) char) in
    let* keep = frequency [ (3, return n); (1, int_bound n) ] in
    let b = Bytes.copy base in
    List.iter (fun (i, c) -> if i < n then Bytes.set b i c) edits;
    return (Bytes.sub b 0 keep)
  in
  let riep_gen =
    map
      (fun (opcode, (obj_class, obj_name), obj_value, (invoke_id, result, version, origin)) ->
        Riep.make ~opcode ~obj_class ~obj_name ?obj_value ~invoke_id ~result ~version
          ~origin ())
      (quad (oneofl riep_opcodes) (pair small_string small_string) (opt rib_value_gen)
         (quad (int_bound 100_000) (int_bound 65535) (int_bound 1000) (int_bound 1000)))
  in
  let lsa_gen =
    map
      (fun (origin, seq, neighbors) -> lsa origin seq neighbors)
      (triple (int_bound 100_000) (int_bound 100_000)
         (list_size (int_bound 6) (pair (int_bound 100_000) (float_bound_inclusive 100.))))
  in
  let input =
    oneof
      [
        map Bytes.of_string (string_size ~gen:char (int_bound 80));
        pdu_gen >>= (fun p -> mangle (Pdu.encode p));
        riep_gen >>= (fun m -> mangle (Riep.encode m));
        lsa_gen >>= (fun l -> mangle (Routing.Lsa.encode l));
        (hello_gen >>= fun (name, addr, token) ->
         mangle (Enrollment.encode_hello ~name ~addr ~token));
        flow_req_gen >>= (fun fr -> mangle (Flow_alloc.encode_flow_req fr));
        (snapshot_gen >>= fun (granted, entries, lsas) ->
         mangle (Enrollment.encode_snapshot ~granted ~entries ~lsas));
      ]
  in
  let total decode b =
    match decode b with Ok _ | Error _ -> true | exception _ -> false
  in
  let total_at_every_len decode b =
    let rec go len = len > Bytes.length b || (total (decode ~len) b && go (len + 1)) in
    go 0
  in
  (* One reassembler fed every prefix of the input, the empty one first,
     then every suffix: arbitrary and empty fragments in one stream. *)
  let reassembler_total b =
    let r = Delimiting.create_reassembler () in
    let push v = match Delimiting.push r v with Some _ | None -> true | exception _ -> false in
    let n = Bytes.length b in
    let rec prefixes len = len > n || (push { Pdu.buf = b; off = 0; len } && prefixes (len + 1)) in
    let rec suffixes off = off > n || (push { Pdu.buf = b; off; len = n - off } && suffixes (off + 1)) in
    prefixes 0 && suffixes 0
  in
  QCheck.Test.make ~count:2000 ~name:"wire decoders never raise"
    (QCheck.make ~print:(fun b -> Printf.sprintf "%S" (Bytes.to_string b)) input)
    (fun b ->
      total_at_every_len (fun ~len b -> Pdu.decode_sub b ~len) b
      && total_at_every_len (fun ~len b -> Pdu.decode_header b ~len) b
      && total Riep.decode b
      && total Routing.Lsa.decode b
      && total Enrollment.decode_hello b
      && total Flow_alloc.decode_flow_req b
      && total Enrollment.decode_snapshot b
      && reassembler_total b)

let () =
  Alcotest.run "rina_core"
    [
      ("types", [ Alcotest.test_case "apn" `Quick test_apn_roundtrip ]);
      ( "pdu",
        [
          Alcotest.test_case "roundtrip all types" `Quick test_pdu_roundtrip_all_types;
          Alcotest.test_case "header size" `Quick test_pdu_header_size;
          Alcotest.test_case "decode garbage" `Quick test_pdu_decode_garbage;
          Alcotest.test_case "encode_frame in place" `Quick test_pdu_encode_frame_in_place;
          QCheck_alcotest.to_alcotest prop_pdu_roundtrip;
        ] );
      ( "sdu_protection",
        [
          Alcotest.test_case "crc32 vector" `Quick test_crc32_known_vector;
          Alcotest.test_case "crc32 short lengths" `Quick test_crc32_short_lengths;
          QCheck_alcotest.to_alcotest prop_crc32_matches_bytewise;
          Alcotest.test_case "crc32_sub bounds" `Quick test_crc32_sub_bounds;
          QCheck_alcotest.to_alcotest prop_seal_verify_roundtrip;
          Alcotest.test_case "roundtrip + corruption" `Quick test_sdu_roundtrip_and_corruption;
        ] );
      ( "rib",
        [
          Alcotest.test_case "crud" `Quick test_rib_crud;
          Alcotest.test_case "children" `Quick test_rib_children;
          QCheck_alcotest.to_alcotest prop_rib_value_roundtrip;
        ] );
      ( "riep",
        [
          Alcotest.test_case "roundtrip opcodes" `Quick test_riep_roundtrip_all_opcodes;
          Alcotest.test_case "response mapping" `Quick test_riep_response_mapping;
        ] );
      ("qos", [ Alcotest.test_case "cubes" `Quick test_qos_cubes ]);
      ( "policy",
        [
          Alcotest.test_case "empty spec is default" `Quick test_policy_lang_empty_is_default;
          Alcotest.test_case "keys apply" `Quick test_policy_lang_keys_apply;
          Alcotest.test_case "errors" `Quick test_policy_lang_errors;
          Alcotest.test_case "error names the kind line" `Quick test_policy_lang_error_lines;
          Alcotest.test_case "scheduler keys in any order" `Quick
            test_policy_lang_order_independent;
          Alcotest.test_case "floats print losslessly" `Quick test_policy_lang_float_lossless;
          Alcotest.test_case "to_string roundtrip" `Quick test_policy_lang_roundtrip;
          Alcotest.test_case "comments and blanks" `Quick test_policy_lang_comments_and_blanks;
          Alcotest.test_case "efcp_for_qos" `Quick test_efcp_for_qos;
          QCheck_alcotest.to_alcotest prop_policy_lang_roundtrip_random;
        ] );
      ( "delimiting",
        [
          Alcotest.test_case "basic" `Quick test_delimiting_basic;
          Alcotest.test_case "empty sdu" `Quick test_delimiting_empty_sdu;
          Alcotest.test_case "discard on new first" `Quick test_delimiting_discard_on_new_first;
          Alcotest.test_case "middle without first" `Quick test_delimiting_middle_without_first_ignored;
          Alcotest.test_case "empty fragment dropped" `Quick test_delimiting_empty_fragment_dropped;
          QCheck_alcotest.to_alcotest prop_delimiting_roundtrip;
        ] );
      ( "routing",
        [
          Alcotest.test_case "install versions" `Quick test_routing_install_versions;
          Alcotest.test_case "spf line" `Quick test_routing_spf_line;
          Alcotest.test_case "two-way check" `Quick test_routing_spf_two_way_check;
          Alcotest.test_case "prefers cheap path" `Quick test_routing_spf_prefers_cheap_path;
          Alcotest.test_case "disconnected" `Quick test_routing_spf_disconnected;
          Alcotest.test_case "lsa codec" `Quick test_routing_lsa_codec;
          QCheck_alcotest.to_alcotest prop_spf_paths_loop_free;
          Alcotest.test_case "lsa costs" `Quick test_routing_lsa_costs;
          Alcotest.test_case "index bounded" `Quick test_routing_index_bounded;
          QCheck_alcotest.to_alcotest prop_spf_matches_oracle;
        ] );
      ("shim", [ Alcotest.test_case "tag filtering" `Quick test_shim_tag_filtering ]);
      ( "decoders",
        [
          QCheck_alcotest.to_alcotest prop_wire_decoders_total;
          QCheck_alcotest.to_alcotest prop_hello_roundtrip;
          QCheck_alcotest.to_alcotest prop_flow_req_roundtrip;
          QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
        ] );
    ]
