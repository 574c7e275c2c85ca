(* M1 — bechamel micro-benchmarks of the core data structures and the
   frame path: per-operation costs underneath every experiment. *)

open Bechamel
open Toolkit

let pdu =
  Rina_core.Pdu.make ~pdu_type:Rina_core.Pdu.Dtp ~dst_addr:42 ~src_addr:7
    ~dst_cep:3 ~src_cep:9 ~qos_id:1 ~seq:12345 (Bytes.make 1200 'x')

(* The frame path the stack runs: encode_frame writes PCI and CRC
   trailer, verify_len checks the trailer, decode_sub parses in place. *)
let frame = Rina_core.Pdu.encode_frame pdu

let body_len = Bytes.length frame - Rina_core.Sdu_protection.overhead

let bench_encode_frame =
  Test.make ~name:"encode_frame_1200B"
    (Staged.stage (fun () -> Rina_core.Pdu.encode_frame pdu))

let bench_decode_sub =
  Test.make ~name:"decode_sub_1200B"
    (Staged.stage (fun () -> Rina_core.Pdu.decode_sub frame ~len:body_len))

let bench_crc32 =
  Test.make ~name:"crc32_1200B"
    (Staged.stage (fun () ->
         Rina_core.Sdu_protection.crc32_sub frame ~pos:0 ~len:body_len))

let bench_verify_len =
  Test.make ~name:"verify_len_1200B"
    (Staged.stage (fun () -> Rina_core.Sdu_protection.verify_len frame))

let lsdb =
  let db = Rina_core.Routing.create () in
  let n = 100 in
  for origin = 1 to n do
    let neighbors =
      List.filter_map
        (fun d ->
          let peer = origin + d in
          if peer >= 1 && peer <= n && peer <> origin then Some (peer, 1.0) else None)
        [ -2; -1; 1; 2 ]
    in
    ignore
      (Rina_core.Routing.install db { Rina_core.Routing.Lsa.origin; seq = 1; neighbors })
  done;
  db

let bench_spf_100 =
  Test.make ~name:"dijkstra_spf_100_nodes"
    (Staged.stage (fun () -> Rina_core.Routing.spf lsdb ~source:1))

let lpm =
  let t = Tcpip.Lpm.create () in
  for i = 0 to 255 do
    Tcpip.Lpm.insert t (Tcpip.Ip.prefix (Tcpip.Ip.addr_of_octets 10 i 0 0) 16) i
  done;
  t

let bench_lpm_lookup =
  let addr = Tcpip.Ip.addr_of_string "10.77.1.2" in
  Test.make ~name:"lpm_lookup_256_routes"
    (Staged.stage (fun () -> Tcpip.Lpm.lookup lpm addr))

let bench_heap =
  Test.make ~name:"heap_push_pop_x100"
    (Staged.stage (fun () ->
         let h = Rina_util.Heap.create ~filler:0 in
         for i = 0 to 99 do
           Rina_util.Heap.push h (float_of_int ((i * 37) mod 100)) i
         done;
         while not (Rina_util.Heap.is_empty h) do
           ignore (Rina_util.Heap.pop h)
         done))

let bench_engine =
  Test.make ~name:"engine_schedule_run_x100"
    (Staged.stage (fun () ->
         let e = Rina_sim.Engine.create () in
         for i = 0 to 99 do
           ignore
             (Rina_sim.Engine.schedule e ~delay:(float_of_int i *. 0.001) (fun () -> ()))
         done;
         Rina_sim.Engine.run e))

let bench_rib =
  Test.make ~name:"rib_write_read_x100"
    (Staged.stage (fun () ->
         let rib = Rina_core.Rib.create () in
         for i = 0 to 99 do
           Rina_core.Rib.write rib
             (Printf.sprintf "/dir/app-%d" i)
             (Rina_core.Rib.V_int i)
         done;
         for i = 0 to 99 do
           ignore (Rina_core.Rib.read rib (Printf.sprintf "/dir/app-%d" i))
         done))

let benchmarks =
  Test.make_grouped ~name:"micro"
    [
      bench_encode_frame;
      bench_decode_sub;
      bench_crc32;
      bench_verify_len;
      bench_spf_100;
      bench_lpm_lookup;
      bench_heap;
      bench_engine;
      bench_rib;
    ]

let run () =
  print_endline "== M1: micro-benchmarks (bechamel; monotonic clock ns/op) ==";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw =
    Benchmark.all cfg Instance.[ monotonic_clock ] benchmarks
  in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-32s %12.1f ns/op\n" name est
      | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
    results;
  print_newline ()
