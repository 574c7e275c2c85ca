(* Unit and property tests for the rina_util library. *)

module Prng = Rina_util.Prng
module Heap = Rina_util.Heap
module Stats = Rina_util.Stats
module Codec = Rina_util.Codec
module Ewma = Rina_util.Ewma
module Token_bucket = Rina_util.Token_bucket
module Metrics = Rina_util.Metrics
module Table = Rina_util.Table

let check = Alcotest.check

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_changes_stream () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_int_bounds () =
  let t = Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_prng_int_invalid () =
  let t = Prng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_float_bounds () =
  let t = Prng.create 9 in
  for _ = 1 to 10_000 do
    let v = Prng.float t 3.5 in
    Alcotest.(check bool) "0 <= v < 3.5" true (v >= 0. && v < 3.5)
  done

let test_prng_bernoulli_extremes () =
  let t = Prng.create 11 in
  for _ = 1 to 200 do
    Alcotest.(check bool) "p=0" false (Prng.bernoulli t 0.);
    Alcotest.(check bool) "p=1" true (Prng.bernoulli t 1.)
  done

let test_prng_exponential_mean () =
  let t = Prng.create 13 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    let v = Prng.exponential t 2.0 in
    Alcotest.(check bool) "positive" true (v >= 0.);
    total := !total +. v
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_prng_shuffle_permutation () =
  let t = Prng.create 17 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "multiset preserved" (Array.init 50 (fun i -> i)) sorted

let test_prng_split_independent () =
  let t = Prng.create 19 in
  let u = Prng.split t in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 t = Prng.bits64 u then incr same
  done;
  Alcotest.(check bool) "split stream distinct" true (!same < 4)

let test_prng_pick () =
  let t = Prng.create 21 in
  let arr = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Prng.pick t arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick t [||]))

let prop_prng_uniformish =
  QCheck.Test.make ~name:"prng int covers range" ~count:50
    QCheck.(int_range 2 40)
    (fun bound ->
      let t = Prng.create bound in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Prng.int t bound) <- true
      done;
      Array.for_all (fun b -> b) seen)

(* ---------- Heap ---------- *)

let test_heap_empty () =
  let h = Heap.create ~filler:0 in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option (pair (float 0.) int))) "pop none" None (Heap.pop h);
  Alcotest.(check (option (pair (float 0.) int))) "peek none" None (Heap.peek h)

let test_heap_sorted_output () =
  let h = Heap.create ~filler:0 in
  let keys = [ 5.; 1.; 4.; 1.5; 0.; 9.; 2. ] in
  List.iteri (fun i k -> Heap.push h k i) keys;
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (k, _) ->
      out := k :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  check
    Alcotest.(list (float 0.))
    "ascending" (List.sort compare keys) (List.rev !out)

let test_heap_fifo_ties () =
  let h = Heap.create ~filler:0 in
  List.iter (fun v -> Heap.push h 1.0 v) [ 10; 20; 30; 40 ];
  let order =
    List.init 4 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> -1)
  in
  check Alcotest.(list int) "insertion order on equal keys" [ 10; 20; 30; 40 ] order

let test_heap_peek_nondestructive () =
  let h = Heap.create ~filler:"" in
  Heap.push h 2. "b";
  Heap.push h 1. "a";
  Alcotest.(check (option (pair (float 0.) string))) "peek" (Some (1., "a")) (Heap.peek h);
  check Alcotest.int "length unchanged" 2 (Heap.length h)

let test_heap_clear () =
  let h = Heap.create ~filler:0 in
  for i = 1 to 10 do
    Heap.push h (float_of_int i) i
  done;
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h)

(* Compaction rebuilds from the last parent down; heaps too small to
   have one (0 or 1 entries, also straight after [create] or [clear],
   when the arrays are empty) must come through untouched. *)
let test_heap_compact_small () =
  let drain h =
    let rec go acc =
      match Heap.pop h with Some (_, v) -> go (v :: acc) | None -> List.rev acc
    in
    go []
  in
  let keep_all _ = true in
  check Alcotest.int "fresh heap" 0 (Heap.compact (Heap.create ~filler:0) ~keep:keep_all);
  List.iter
    (fun n ->
      let fill () =
        let h = Heap.create ~filler:0 in
        for i = n downto 1 do
          Heap.push h (float_of_int i) i
        done;
        h
      in
      let h = fill () in
      check Alcotest.int (Printf.sprintf "keep all of %d" n) 0
        (Heap.compact h ~keep:keep_all);
      check Alcotest.(list int) (Printf.sprintf "order of %d" n)
        (List.init n succ) (drain h);
      let h = fill () in
      check Alcotest.int (Printf.sprintf "drop odd of %d" n) ((n + 1) / 2)
        (Heap.compact h ~keep:(fun v -> v mod 2 = 0));
      check Alcotest.(list int) (Printf.sprintf "evens of %d" n)
        (List.filter (fun v -> v mod 2 = 0) (List.init n succ))
        (drain h);
      let h = fill () in
      Heap.clear h;
      check Alcotest.int (Printf.sprintf "cleared %d" n) 0
        (Heap.compact h ~keep:keep_all);
      check Alcotest.bool "still empty" true (Heap.is_empty h))
    [ 0; 1; 2 ]

(* Sizes at the edges of the 4-ary tree's levels (1, 5, 21, 85 entries
   fill levels 0-3), with keys from three values so ties decide most
   pops, pushed in an order that makes entries climb: every pop must
   come out in (key, insertion) order. *)
let test_heap_level_edges () =
  List.iter
    (fun n ->
      let h = Heap.create ~filler:0 in
      let entries = List.init n (fun i -> (float_of_int ((n - i) mod 3), i)) in
      List.iter (fun (k, i) -> Heap.push h k i) entries;
      let rec drain acc =
        match Heap.pop h with Some kv -> drain (kv :: acc) | None -> List.rev acc
      in
      check
        Alcotest.(list (pair (float 0.) int))
        (Printf.sprintf "%d entries" n) (List.sort compare entries) (drain []))
    [ 1; 4; 5; 20; 21; 84; 85 ]

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap sorts any float list" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun keys ->
      let h = Heap.create ~filler:0 in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let rec drain acc =
        match Heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare keys)

(* The heap against a reference model under random interleavings of
   push, pop and cancellation-compaction.  Every entry's value is its
   own sequence number (obtained via [reserve_seq]), so agreeing with
   the model's lexicographic (key, seq) minimum at every pop proves
   the drain order is nondecreasing in (key, seq) — i.e. compaction
   preserves heap order and FIFO tie-breaking, and reserved sequence
   numbers pushed out of order (the timer wheel's flush protocol)
   still land in reservation order on equal keys.  With [ties], keys
   come from three values, so the seq decides most pops. *)
let prop_heap_interleaved_compaction =
  QCheck.Test.make ~name:"heap matches model under push/pop/cancel-compaction"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, ties) ->
      let rng = Prng.create (seed + 1) in
      let key () =
        if ties then float_of_int (Prng.int rng 3) else Prng.float rng 50.
      in
      let h = Heap.create ~filler:0 in
      let model = ref [] in
      (* live (key, seq) pairs *)
      let ok = ref true in
      let model_min () =
        List.fold_left
          (fun acc kv ->
            match acc with
            | None -> Some kv
            | Some best -> if kv < best then Some kv else acc)
          None !model
      in
      let pop_check () =
        match (Heap.pop h, model_min ()) with
        | None, None -> ()
        | Some kv, Some mkv when kv = mkv ->
          model := List.filter (fun x -> x <> mkv) !model
        | _ -> ok := false
      in
      let push_seq k seq =
        Heap.push_with_seq h ~key:k ~seq seq;
        model := (k, seq) :: !model
      in
      for _ = 1 to 300 do
        match Prng.int rng 8 with
        | 0 | 1 | 2 ->
          let seq = Heap.reserve_seq h in
          push_seq (key ()) seq
        | 3 | 4 -> pop_check ()
        | 5 ->
          (* cancel a random subset wholesale, as the engine's reap
             does for cancelled timers *)
          let doomed =
            List.filter_map
              (fun (_, s) -> if Prng.bernoulli rng 0.5 then Some s else None)
              !model
          in
          ignore (Heap.compact h ~keep:(fun s -> not (List.mem s doomed)));
          model := List.filter (fun (_, s) -> not (List.mem s doomed)) !model
        | _ ->
          (* two wheel-parked entries flushed in reverse reservation
             order, sometimes with equal keys: the FIFO tie must follow
             the reservation, not the push *)
          let seq1 = Heap.reserve_seq h in
          let seq2 = Heap.reserve_seq h in
          let k1 = key () in
          let k2 = if Prng.bernoulli rng 0.5 then k1 else key () in
          push_seq k2 seq2;
          push_seq k1 seq1
      done;
      while (not (Heap.is_empty h)) && !ok do
        pop_check ()
      done;
      !ok && !model = [])

(* ---------- Stats ---------- *)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check bool) "percentile nan" true (Float.is_nan (Stats.percentile s 50.));
  check Alcotest.int "count" 0 (Stats.count s)

let test_stats_known_values () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "max" 9. (Stats.max_value s)

let test_stats_percentiles () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p0" 1. (Stats.percentile s 0.);
  check (Alcotest.float 1e-9) "p100" 100. (Stats.percentile s 100.);
  check (Alcotest.float 1e-9) "median" 50.5 (Stats.median s);
  (* Clamping out-of-range percentiles. *)
  check (Alcotest.float 1e-9) "p-5 clamps" 1. (Stats.percentile s (-5.));
  check (Alcotest.float 1e-9) "p200 clamps" 100. (Stats.percentile s 200.)

let test_stats_interleaved_sorting () =
  (* add after percentile must keep working (re-sort). *)
  let s = Stats.create () in
  Stats.add s 5.;
  ignore (Stats.median s);
  Stats.add s 1.;
  check (Alcotest.float 1e-9) "min updates" 1. (Stats.percentile s 0.)

(* ---------- Codec ---------- *)

let test_codec_roundtrip_basics () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 200;
  Codec.Writer.u16 w 65000;
  Codec.Writer.u32 w 4_000_000_000;
  Codec.Writer.u64 w (-1L);
  Codec.Writer.f64 w 3.14159;
  Codec.Writer.bool w true;
  Codec.Writer.string w "hello";
  Codec.Writer.bytes w (Bytes.of_string "\x00\xff");
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  check Alcotest.int "u8" 200 (Codec.Reader.u8 r);
  check Alcotest.int "u16" 65000 (Codec.Reader.u16 r);
  check Alcotest.int "u32" 4_000_000_000 (Codec.Reader.u32 r);
  check Alcotest.int64 "u64" (-1L) (Codec.Reader.u64 r);
  check (Alcotest.float 1e-12) "f64" 3.14159 (Codec.Reader.f64 r);
  Alcotest.(check bool) "bool" true (Codec.Reader.bool r);
  check Alcotest.string "string" "hello" (Codec.Reader.string r);
  check Alcotest.bytes "bytes" (Bytes.of_string "\x00\xff") (Codec.Reader.bytes r);
  Codec.Reader.expect_end r

let test_codec_writer_bounds () =
  let w = Codec.Writer.create () in
  Alcotest.check_raises "u8 range" (Invalid_argument "Codec.Writer.u8: out of range")
    (fun () -> Codec.Writer.u8 w 256);
  Alcotest.check_raises "u16 range" (Invalid_argument "Codec.Writer.u16: out of range")
    (fun () -> Codec.Writer.u16 w (-1));
  Alcotest.check_raises "u32 range" (Invalid_argument "Codec.Writer.u32: out of range")
    (fun () -> Codec.Writer.u32 w (-5))

let test_codec_truncated () =
  let r = Codec.Reader.create (Bytes.of_string "\x01") in
  ignore (Codec.Reader.u8 r);
  Alcotest.(check bool) "truncated u32 raises" true
    (try
       ignore (Codec.Reader.u32 r);
       false
     with Codec.Reader.Decode_error _ -> true)

let test_codec_trailing () =
  let r = Codec.Reader.create (Bytes.of_string "ab") in
  ignore (Codec.Reader.u8 r);
  Alcotest.(check bool) "trailing detected" true
    (try
       Codec.Reader.expect_end r;
       false
     with Codec.Reader.Decode_error _ -> true)

let test_codec_bad_bool () =
  let r = Codec.Reader.create (Bytes.of_string "\x07") in
  Alcotest.(check bool) "bool 7 rejected" true
    (try
       ignore (Codec.Reader.bool r);
       false
     with Codec.Reader.Decode_error _ -> true)

let prop_codec_string_roundtrip =
  QCheck.Test.make ~name:"codec string roundtrip" ~count:200 QCheck.string (fun s ->
      let w = Codec.Writer.create () in
      Codec.Writer.string w s;
      let r = Codec.Reader.create (Codec.Writer.contents w) in
      let out = Codec.Reader.string r in
      Codec.Reader.expect_end r;
      String.equal s out)

(* ---------- Ewma ---------- *)

let test_ewma () =
  let e = Ewma.create ~alpha:0.5 in
  Alcotest.(check bool) "uninitialized" false (Ewma.initialized e);
  Ewma.add e 10.;
  check (Alcotest.float 1e-9) "first" 10. (Ewma.value e);
  Ewma.add e 20.;
  check (Alcotest.float 1e-9) "second" 15. (Ewma.value e);
  Alcotest.check_raises "alpha 0" (Invalid_argument "Ewma.create: alpha not in (0,1]")
    (fun () -> ignore (Ewma.create ~alpha:0.))

let test_ewma_negative_samples () =
  (* EFCP folds 0/1 mark indicators into an Ewma and clamps the read
     to [0,1]; the Ewma itself must pass negatives through unchanged
     so that clamp is the only policy applied. *)
  let e = Ewma.create ~alpha:0.5 in
  Ewma.add e (-4.);
  check (Alcotest.float 1e-9) "negative preserved" (-4.) (Ewma.value e);
  Ewma.add e 0.;
  check (Alcotest.float 1e-9) "decays toward zero" (-2.) (Ewma.value e);
  check (Alcotest.float 1e-9) "efcp-style clamp floors at 0" 0.
    (Float.min 1. (Float.max 0. (Ewma.value e)));
  Alcotest.(check bool) "nan before first sample" true
    (Float.is_nan (Ewma.value (Ewma.create ~alpha:0.3)))

(* ---------- Token bucket ---------- *)

let test_token_bucket () =
  let tb = Token_bucket.create ~rate:10. ~burst:5. in
  Alcotest.(check bool) "initial burst" true (Token_bucket.try_take tb ~now:0. 5.);
  Alcotest.(check bool) "empty" false (Token_bucket.try_take tb ~now:0. 1.);
  Alcotest.(check bool) "refilled" true (Token_bucket.try_take tb ~now:0.5 4.9);
  check (Alcotest.float 1e-6) "cap at burst" 5. (Token_bucket.available tb ~now:100.);
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Token_bucket.create: rate must be positive") (fun () ->
      ignore (Token_bucket.create ~rate:0. ~burst:1.))

let test_token_bucket_edges () =
  let tb = Token_bucket.create ~rate:2. ~burst:4. in
  (* Burst exhaustion, then the exact wake-up the EFCP pacer sleeps on. *)
  Alcotest.(check bool) "drain whole burst" true (Token_bucket.try_take tb ~now:0. 4.);
  check (Alcotest.float 1e-9) "delay until one token" 0.5
    (Token_bucket.delay_until tb ~now:0. 1.);
  check (Alcotest.float 1e-9) "over-burst ask clamps to burst" 2.
    (Token_bucket.delay_until tb ~now:0. 100.);
  (* A negative take would silently mint tokens; both entry points
     must reject it. *)
  Alcotest.check_raises "negative take"
    (Invalid_argument "Token_bucket.try_take: negative take") (fun () ->
      ignore (Token_bucket.try_take tb ~now:0. (-1.)));
  Alcotest.check_raises "negative delay query"
    (Invalid_argument "Token_bucket.delay_until: negative take") (fun () ->
      ignore (Token_bucket.delay_until tb ~now:0. (-1.)));
  (* The clock running backwards (never on the virtual engine, but
     cheap to guarantee) must not refill. *)
  Alcotest.(check bool) "refill to burst by t=10" true
    (Token_bucket.try_take tb ~now:10. 4.);
  check (Alcotest.float 1e-9) "no retroactive refill" 0.
    (Token_bucket.available tb ~now:5.);
  Alcotest.check_raises "zero burst"
    (Invalid_argument "Token_bucket.create: burst must be positive") (fun () ->
      ignore (Token_bucket.create ~rate:1. ~burst:0.))

(* ---------- Metrics ---------- *)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m "a";
  Metrics.add m "b" 5;
  check Alcotest.int "a" 2 (Metrics.get m "a");
  check Alcotest.int "b" 5 (Metrics.get m "b");
  check Alcotest.int "absent" 0 (Metrics.get m "zzz");
  check Alcotest.(list (pair string int)) "sorted" [ ("a", 2); ("b", 5) ] (Metrics.to_list m)


(* ---------- Json ---------- *)

module Json = Rina_util.Json

(* Random values whose strings and keys lean on the bytes the printer
   escapes or passes through raw, and whose numbers come from every
   constructor the writers use. *)
let json_gen =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (3, printable);
        (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\001'; '\x7f'; '\xc3'; '\xa9'; '\xff' ]) ]
  in
  let str = string_size ~gen:byte (int_bound 8) in
  let num =
    oneof
      [ map Json.int int; map2 Json.fixed (int_bound 6) float; map Json.float float ]
  in
  let scalar =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool; num;
        map (fun s -> Json.Str s) str ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         if depth = 0 then scalar
         else
           frequency
             [ (2, scalar);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (depth - 1))));
               (1,
                map (fun l -> Json.Obj l)
                  (list_size (int_bound 4) (pair str (self (depth - 1))))) ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"json prints and parses back, both layouts"
    (QCheck.make ~print:Json.to_string json_gen) (fun v ->
      Json.parse (Json.to_string v) = Ok v && Json.parse (Json.pretty v) = Ok v)

(* The artifact layout, on a value shaped like BENCH_chaos_recovery.json. *)
let test_json_layout () =
  let fault label at gap =
    Json.Obj
      [ ("label", Json.Str label); ("at_s", Json.fixed 1 at);
        ("blackout_s", Option.fold ~none:Json.Null ~some:(Json.fixed 6) gap);
        ("recovered", Json.Bool (gap <> None)) ]
  in
  let v =
    Json.Obj
      [ ("rina",
         Json.Obj
           [ ("delivered", Json.int 10001);
             ("faults",
              Json.Arr [ fault "flap-left" 8. (Some 3.167018); fault "crash-relay" 27. None ]);
             ("gap_p50_ms", Json.fixed 3 0.509) ]);
        ("t", Json.float 3.); ("empty", Json.Arr []) ]
  in
  check Alcotest.string "pretty"
    "{\n\
    \  \"rina\": {\n\
    \    \"delivered\": 10001,\n\
    \    \"faults\": [\n\
    \      {\"label\": \"flap-left\", \"at_s\": 8.0, \"blackout_s\": 3.167018, \"recovered\": true},\n\
    \      {\"label\": \"crash-relay\", \"at_s\": 27.0, \"blackout_s\": null, \"recovered\": false}\n\
    \    ],\n\
    \    \"gap_p50_ms\": 0.509\n\
    \  },\n\
    \  \"t\": 3,\n\
    \  \"empty\": []\n\
     }\n"
    (Json.pretty v);
  check Alcotest.string "compact"
    "{\"rina\":{\"delivered\":10001,\"faults\":[{\"label\":\"flap-left\",\"at_s\":8.0,\
     \"blackout_s\":3.167018,\"recovered\":true},{\"label\":\"crash-relay\",\"at_s\":27.0,\
     \"blackout_s\":null,\"recovered\":false}],\"gap_p50_ms\":0.509},\"t\":3,\"empty\":[]}"
    (Json.to_string v)

(* ---------- Flight recorder ---------- *)

module Flight = Rina_util.Flight

(* Exports must not leak hash order: whatever the insertion order,
   the counter listing comes back alphabetical. *)
let test_metrics_sorted_export () =
  let m = Metrics.create () in
  let names = [ "zeta"; "alpha"; "mu"; "beta"; "omega"; "kappa"; "a"; "z" ] in
  List.iteri (fun i n -> Metrics.add m n (i + 1)) names;
  let sorted = List.sort compare names in
  check
    Alcotest.(list string)
    "counters sorted" sorted
    (List.map fst (Metrics.to_list m))

(* [bump_by] on a handle and [add] by name, fed the same deltas, give
   the same registry: clamped at zero, and a zero or negative first
   delta still creates the counter. *)
let test_metrics_clamp () =
  let by_name = Metrics.create () and by_handle = Metrics.create () in
  let c = Metrics.counter by_handle "a" and z = Metrics.counter by_handle "z" in
  List.iter
    (fun (delta, want) ->
      Metrics.add by_name "a" delta;
      Metrics.bump_by c delta;
      check Alcotest.int "by name" want (Metrics.get by_name "a");
      check Alcotest.int "by handle" want (Metrics.get by_handle "a"))
    [ (5, 5); (-9, 0); (3, 3); (0, 3); (-3, 0) ];
  Metrics.add by_name "z" (-4);
  Metrics.bump_by z (-4);
  check
    Alcotest.(list (pair string int))
    "same registry" (Metrics.to_list by_name) (Metrics.to_list by_handle)

(* A handle and its name are one counter, whichever bumps first. *)
let test_metrics_counter_handles () =
  let m = Metrics.create () in
  let x = Metrics.counter m "x" in
  check Alcotest.int "declared reads 0" 0 (Metrics.get m "x");
  check Alcotest.int "handle reads 0" 0 (Metrics.value x);
  check
    Alcotest.(list (pair string int))
    "declared is absent" [] (Metrics.to_list m);
  Metrics.bump x;
  Metrics.bump x;
  Metrics.incr m "x";
  check Alcotest.int "name sees handle" 3 (Metrics.get m "x");
  check Alcotest.int "handle sees name" 3 (Metrics.value x);
  (* bumped by name before its handle's first bump *)
  let y = Metrics.counter m "y" in
  Metrics.incr m "y";
  check Alcotest.int "idle handle reads the name" 1 (Metrics.value y);
  Metrics.bump y;
  check Alcotest.int "then shares its cell" 2 (Metrics.get m "y");
  (* declared after the name exists *)
  let x' = Metrics.counter m "x" in
  Metrics.bump_by x' 2;
  check Alcotest.int "late handle shares the cell" 5 (Metrics.value x);
  check
    Alcotest.(list (pair string int))
    "one entry per name" [ ("x", 5); ("y", 2) ] (Metrics.to_list m)

let test_span_of () =
  check Alcotest.bool "nonzero" true (Flight.span_of ~flow:0 ~seq:0 <> 0);
  check Alcotest.int "deterministic"
    (Flight.span_of ~flow:77 ~seq:3)
    (Flight.span_of ~flow:77 ~seq:3);
  check Alcotest.bool "seq separates" true
    (Flight.span_of ~flow:77 ~seq:3 <> Flight.span_of ~flow:77 ~seq:4);
  check Alcotest.bool "flow separates" true
    (Flight.span_of ~flow:77 ~seq:3 <> Flight.span_of ~flow:78 ~seq:3)

let test_reason_strings () =
  let all =
    [ Flight.R_queue_full; Flight.R_link_down; Flight.R_loss; Flight.R_crc;
      Flight.R_decode; Flight.R_ttl_expired; Flight.R_no_route;
      Flight.R_ingress_filter; Flight.R_stale; Flight.R_duplicate;
      Flight.R_blackhole; Flight.R_corrupt; Flight.R_dup;
      Flight.R_reorder_overflow; Flight.R_other "because" ]
  in
  List.iter
    (fun r ->
      check Alcotest.bool "roundtrip" true
        (Flight.reason_of_string (Flight.reason_to_string r) = r))
    all

let test_flight_buf () =
  let b = Flight.Buf.create () in
  check Alcotest.int "empty" 0 (Flight.Buf.length b);
  let ev i =
    { Flight.time = float_of_int i; component = "c"; kind = Flight.Pdu_sent;
      flow = 0; rank = 0; seq = i; size = 0; span = 0 }
  in
  for i = 1 to 1000 do
    Flight.Buf.add b (ev i)
  done;
  check Alcotest.int "length" 1000 (Flight.Buf.length b);
  check Alcotest.int "get keeps order" 17 (Flight.Buf.get b 16).Flight.seq;
  let sum = ref 0 in
  Flight.Buf.iter (fun e -> sum := !sum + e.Flight.seq) b;
  check Alcotest.int "iter sees all" (1000 * 1001 / 2) !sum;
  Flight.Buf.clear b;
  check Alcotest.int "cleared" 0 (Flight.Buf.length b);
  Alcotest.check_raises "bounds"
    (Invalid_argument "Flight.Buf.get: out of bounds") (fun () ->
      ignore (Flight.Buf.get b 0))

(* PRNG-driven event generator; times come from int generators so they
   are always finite and exactly representable. *)
let event_gen =
  let open QCheck.Gen in
  let reason =
    oneof
      [
        oneofl
          [ Flight.R_queue_full; Flight.R_link_down; Flight.R_loss;
            Flight.R_crc; Flight.R_decode; Flight.R_ttl_expired;
            Flight.R_no_route; Flight.R_ingress_filter; Flight.R_stale;
            Flight.R_duplicate; Flight.R_blackhole; Flight.R_corrupt;
            Flight.R_dup; Flight.R_reorder_overflow ];
        (* must not collide with a built-in reason name, or
           reason_of_string canonicalises it *)
        map (fun s -> Flight.R_other ("x-" ^ s)) (string_size ~gen:printable (return 4));
      ]
  in
  let kind =
    oneof
      [
        oneofl
          [ Flight.Pdu_sent; Flight.Pdu_recvd; Flight.Enqueued;
            Flight.Dequeued; Flight.Timer_set; Flight.Timer_fired;
            Flight.Retransmit; Flight.Handoff; Flight.Route_update ];
        map (fun r -> Flight.Pdu_dropped r) reason;
        map (fun s -> Flight.Custom s) (string_size ~gen:printable (int_bound 12));
      ]
  in
  let* time = map (fun n -> float_of_int n /. 64.) (int_bound 1_000_000) in
  let* component = string_size ~gen:printable (int_bound 16) in
  let* kind = kind in
  let* flow = int_bound 0xFFFFFF in
  let* rank = int_bound 0xFFFF in
  let* seq = int_bound 0xFFFFFF in
  let* size = int_bound 0xFFFF in
  let* span = int_bound 0x3FFFFFFFFFFF in
  return { Flight.time; component; kind; flow; rank; seq; size; span }

let prop_flight_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"flight JSON codec roundtrips"
    (QCheck.make event_gen) (fun e ->
      match Flight.event_of_json (Flight.event_to_json e) with
      | Ok decoded -> decoded = e
      | Error _ -> false)

let test_flight_json_garbage () =
  List.iter
    (fun line ->
      match Flight.event_of_json line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [ ""; "{"; "{}"; "not json"; "{\"t\":1}"; "{\"t\":1,\"c\":\"x\"}";
      "{\"t\":1,\"c\":\"x\",\"k\":\"nope\"}";
      "{\"t\":1,\"c\":\"x\",\"k\":\"pdu_sent\"}trailing" ]

let test_flight_buf_ring () =
  let b = Flight.Buf.create ~capacity:8 () in
  let ev i =
    { Flight.time = float_of_int i; component = "c"; kind = Flight.Pdu_sent;
      flow = 0; rank = 0; seq = i; size = 0; span = 0 }
  in
  for i = 1 to 5 do Flight.Buf.add b (ev i) done;
  check Alcotest.int "under capacity: nothing dropped" 0 (Flight.Buf.dropped b);
  for i = 6 to 20 do Flight.Buf.add b (ev i) done;
  check Alcotest.int "ring full" 8 (Flight.Buf.length b);
  check Alcotest.int "exact drop count" 12 (Flight.Buf.dropped b);
  check Alcotest.int "oldest retained" 13 (Flight.Buf.get b 0).Flight.seq;
  check Alcotest.int "newest retained" 20 (Flight.Buf.get b 7).Flight.seq;
  check
    (Alcotest.list Alcotest.int)
    "newest window, oldest-first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun e -> e.Flight.seq) (Flight.Buf.to_list b));
  Flight.Buf.clear b;
  check Alcotest.int "clear resets length" 0 (Flight.Buf.length b);
  check Alcotest.int "clear resets dropped" 0 (Flight.Buf.dropped b);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Flight.Buf.create: negative capacity") (fun () ->
      ignore (Flight.Buf.create ~capacity:(-1) ()))

(* ---------- sampling ---------- *)

let test_span_kept_deterministic () =
  let ppm = Flight.ppm_of_rate 0.01 in
  for i = 1 to 1000 do
    let span = Flight.span_of ~flow:9 ~seq:i in
    check Alcotest.bool "same decision on every call" true
      (Flight.span_kept ~keep_ppm:ppm span
      = Flight.span_kept ~keep_ppm:ppm span)
  done;
  check Alcotest.bool "ppm 1e6 keeps everything" true
    (Flight.span_kept ~keep_ppm:1_000_000 (Flight.span_of ~flow:1 ~seq:1))

let prop_span_kept_monotone_in_rate =
  QCheck.Test.make ~count:300 ~name:"span_kept monotone in keep rate"
    QCheck.(make Gen.(triple (int_bound 0xFFFFFF) (int_range 1 999_999) (int_range 1 999_999)))
    (fun (seq, p1, p2) ->
      let lo = min p1 p2 and hi = max p1 p2 in
      let span = Flight.span_of ~flow:3 ~seq in
      (not (Flight.span_kept ~keep_ppm:lo span))
      || Flight.span_kept ~keep_ppm:hi span)

let test_span_kept_rate () =
  (* The hash is deterministic, so the observed keep fraction over a
     fixed population is a constant of the code; pin it near the target
     rate.  60k spans at 1% → expect ~600, allow ±40%. *)
  let ppm = Flight.ppm_of_rate 0.01 in
  let kept = ref 0 in
  for seq = 1 to 60_000 do
    if Flight.span_kept ~keep_ppm:ppm (Flight.span_of ~flow:42 ~seq) then
      incr kept
  done;
  check Alcotest.bool
    (Printf.sprintf "keep fraction near 1%% (got %d/60000)" !kept)
    true
    (!kept > 360 && !kept < 840)

let test_event_kept_landmarks () =
  let ppm = 1 in  (* keep essentially nothing by span *)
  check Alcotest.bool "drops always kept" true
    (Flight.event_kept ~keep_ppm:ppm ~span:0
       (Flight.Pdu_dropped Flight.R_loss));
  check Alcotest.bool "custom always kept" true
    (Flight.event_kept ~keep_ppm:ppm ~span:0 (Flight.Custom "probe"));
  check Alcotest.bool "handoff always kept" true
    (Flight.event_kept ~keep_ppm:ppm ~span:0 Flight.Handoff);
  check Alcotest.bool "route_update always kept" true
    (Flight.event_kept ~keep_ppm:ppm ~span:0 Flight.Route_update);
  check Alcotest.bool "span-less data event shed" false
    (Flight.event_kept ~keep_ppm:ppm ~span:0 Flight.Pdu_sent);
  check Alcotest.bool "full rate keeps span-less" true
    (Flight.event_kept ~keep_ppm:1_000_000 ~span:0 Flight.Pdu_sent)

(* ---------- Sketch ---------- *)

module Sketch = Rina_util.Sketch
module Telemetry = Rina_util.Telemetry

let hist_of_list xs =
  let h = Sketch.Hist.create () in
  List.iter (Sketch.Hist.add h) xs;
  h

let hist_eq a b =
  Sketch.Hist.count a = Sketch.Hist.count b
  && Sketch.Hist.zero_count a = Sketch.Hist.zero_count b
  && Sketch.Hist.buckets a = Sketch.Hist.buckets b

(* Positive finite values with the occasional exact zero. *)
let samples_gen =
  QCheck.Gen.(
    list_size (int_bound 100)
      (map (fun n -> float_of_int n /. 64.) (int_bound 1_000_000)))

let prop_hist_merge_commutative =
  QCheck.Test.make ~count:100 ~name:"hist merge is commutative"
    (QCheck.make (QCheck.Gen.pair samples_gen samples_gen))
    (fun (xs, ys) ->
      let ab = hist_of_list xs in
      Sketch.Hist.merge_into ~into:ab (hist_of_list ys);
      let ba = hist_of_list ys in
      Sketch.Hist.merge_into ~into:ba (hist_of_list xs);
      hist_eq ab ba)

let prop_hist_merge_associative =
  QCheck.Test.make ~count:100 ~name:"hist merge is associative"
    (QCheck.make (QCheck.Gen.triple samples_gen samples_gen samples_gen))
    (fun (xs, ys, zs) ->
      (* (x ⊕ y) ⊕ z *)
      let left = hist_of_list xs in
      Sketch.Hist.merge_into ~into:left (hist_of_list ys);
      Sketch.Hist.merge_into ~into:left (hist_of_list zs);
      (* x ⊕ (y ⊕ z) *)
      let yz = hist_of_list ys in
      Sketch.Hist.merge_into ~into:yz (hist_of_list zs);
      let right = hist_of_list xs in
      Sketch.Hist.merge_into ~into:right yz;
      hist_eq left right)

let prop_hist_merge_is_union =
  QCheck.Test.make ~count:100 ~name:"hist merge equals adding everything"
    (QCheck.make (QCheck.Gen.pair samples_gen samples_gen))
    (fun (xs, ys) ->
      let merged = hist_of_list xs in
      Sketch.Hist.merge_into ~into:merged (hist_of_list ys);
      hist_eq merged (hist_of_list (xs @ ys)))

let test_hist_quantile_accuracy () =
  let h = Sketch.Hist.create () in
  for i = 1 to 10_000 do
    Sketch.Hist.add h (float_of_int i /. 100.)  (* 0.01 .. 100 *)
  done;
  (* log-bucketed with gamma = 2^(1/8): relative error <= ~9% *)
  List.iter
    (fun p ->
      let exact = p *. 100. in
      let est = Sketch.Hist.quantile h p in
      check Alcotest.bool
        (Printf.sprintf "q%.2f within gamma (est %g, exact %g)" p est exact)
        true
        (Float.abs (est -. exact) /. exact < 0.09))
    [ 0.5; 0.9; 0.99 ]

let test_series_cache_coherent () =
  (* The bounds cache must not mis-bucket adds that hop between
     intervals, revisit an earlier one, or batch with ~n. *)
  let s = Sketch.Series.create ~bucket:0.5 in
  List.iter (Sketch.Series.add s) [ 0.1; 0.2; 1.7; 0.3; 0.6; 1.9; 0.45 ];
  Sketch.Series.add ~n:3 s 1.8;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "per-interval counts"
    [ (0, 4); (1, 1); (3, 5) ]
    (Sketch.Series.counts s);
  check Alcotest.int "total" 10 (Sketch.Series.total s)

(* ---------- Telemetry ---------- *)

(* A registry with every line type of the export: meta, counters,
   snapshots, histograms and series. *)
let sample_registry () =
  let t = Telemetry.create ~series_bucket:0.25 () in
  let y = Telemetry.tally t in
  y.Flight.t_events <- 1000;
  y.Flight.t_sent <- 400;
  y.Flight.t_recvd <- 390;
  y.Flight.t_dropped <- 10;
  y.Flight.t_retransmit <- 7;
  y.Flight.t_timer <- 150;
  Telemetry.count t "handoff";
  Telemetry.add_sample t "latency" 0.012;
  Telemetry.add_sample t "latency" 0.019;
  Telemetry.add_sample t "probe:q" 4.;
  Telemetry.set_latency_ppm t 10_000;
  ignore (Telemetry.snap t ~now:1.0);
  ignore (Telemetry.snap t ~now:2.0);
  t

let test_telemetry_jsonl_roundtrip () =
  let t = sample_registry () in
  let text = Telemetry.to_jsonl t in
  match Telemetry.of_jsonl text with
  | Error e -> Alcotest.failf "of_jsonl failed: %s" e
  | Ok t' ->
    check Alcotest.string "canonical JSONL round-trips byte-identically"
      text (Telemetry.to_jsonl t');
    check Alcotest.int "counter survives" 400 (Telemetry.counter t' "sent");
    check Alcotest.int "latency ppm survives" 10_000 (Telemetry.latency_ppm t');
    check Alcotest.int "snapshots survive" 2
      (List.length (Telemetry.snapshots t'))

(* Named counters live in a [Metrics.t], which clamps at zero, so a
   negative counter in a stats file is rejected rather than stored. *)
let test_telemetry_rejects_negative_counter () =
  let meta = "{\"kind\":\"meta\",\"v\":1}\n" in
  let counter name n =
    Printf.sprintf "{\"kind\":\"counter\",\"name\":%S,\"n\":%d}\n" name n
  in
  check
    Alcotest.(result reject string)
    "negative named counter"
    (Error "line 3: counter \"handoff\" is negative (-2)")
    (Telemetry.of_jsonl (meta ^ counter "sent" 4 ^ counter "handoff" (-2)));
  check
    Alcotest.(result reject string)
    "negative built-in counter"
    (Error "line 2: counter \"sent\" is negative (-1)")
    (Telemetry.of_jsonl (meta ^ counter "sent" (-1)))

(* JSONL is the one serialisation of flight events and telemetry, and
   Json.parse reads every artifact, so all three decoders must be
   total: arbitrary bytes, valid exports and encodings with random
   bytes overwritten or cut short, and nesting far past any stack
   give [Ok] or [Error] — never an exception. *)
let prop_jsonl_decoders_total =
  let open QCheck.Gen in
  (* bias overwrites toward the bytes the parsers branch on *)
  let byte =
    frequency
      [ (1, char);
        (2, oneofl [ '"'; '\\'; '{'; '}'; ':'; ','; '-'; '.'; 'e'; '0'; '9'; ' '; '\n' ]) ]
  in
  let mangle base =
    let n = String.length base in
    let* edits = list_size (int_range 1 4) (pair (int_bound (max 0 (n - 1))) byte) in
    let* keep = frequency [ (3, return n); (1, int_bound n) ] in
    let b = Bytes.of_string base in
    List.iter (fun (i, c) -> if i < n then Bytes.set b i c) edits;
    return (Bytes.sub_string b 0 keep)
  in
  let stats = Telemetry.to_jsonl (sample_registry ()) in
  let input =
    oneof
      [ string_size ~gen:char (int_bound 80);
        event_gen >>= (fun e -> mangle (Flight.event_to_json e));
        mangle stats;
        json_gen >>= (fun v -> mangle (Json.to_string v));
        json_gen >>= (fun v -> mangle (Json.pretty v));
        return (String.make 100_000 '[') ]
  in
  let total decode s =
    match decode s with Ok _ | Error _ -> true | exception _ -> false
  in
  QCheck.Test.make ~count:3000 ~name:"jsonl decoders never raise"
    (QCheck.make ~print:(Printf.sprintf "%S") input)
    (fun s ->
      total Flight.event_of_json s && total Telemetry.of_jsonl s
      && total Json.parse s)

let test_telemetry_merge () =
  let mk sent dropped lat =
    let t = Telemetry.create () in
    (Telemetry.tally t).Flight.t_sent <- sent;
    (Telemetry.tally t).Flight.t_dropped <- dropped;
    List.iter (Telemetry.add_sample t "latency") lat;
    t
  in
  let a = mk 10 1 [ 0.1; 0.2 ] and b = mk 5 2 [ 0.3 ] in
  Telemetry.merge_into ~into:a b;
  check Alcotest.int "counters sum" 15 (Telemetry.counter a "sent");
  check Alcotest.int "drops sum" 3 (Telemetry.counter a "dropped");
  match Telemetry.hist a "latency" with
  | None -> Alcotest.fail "merged latency hist missing"
  | Some h -> check Alcotest.int "hist samples sum" 3 (Sketch.Hist.count h)

let test_telemetry_observe_kept_only () =
  (* observe is the tap half: it sees kept events and does span-latency
     matching; the tally (not observe) owns the raw counters. *)
  let t = Telemetry.create () in
  Telemetry.set_latency_ppm t 1_000_000;
  let ev time kind =
    { Flight.time; component = "x"; kind; flow = 1; rank = 0; seq = 1;
      size = 100; span = 77 }
  in
  Telemetry.observe t (ev 1.0 Flight.Pdu_sent);
  Telemetry.observe t (ev 1.25 Flight.Pdu_recvd);
  (match Telemetry.hist t "latency" with
  | None -> Alcotest.fail "latency hist missing"
  | Some h ->
    check Alcotest.int "one span matched" 1 (Sketch.Hist.count h);
    check Alcotest.bool "latency ~0.25" true
      (Float.abs (Sketch.Hist.quantile h 0.5 -. 0.25) < 0.05));
  Telemetry.observe t (ev 2.0 (Flight.Pdu_dropped Flight.R_queue_full));
  match Telemetry.series t "drop:queue_full" with
  | None -> Alcotest.fail "drop series missing"
  | Some s -> check Alcotest.int "drop timeline bumped" 1 (Sketch.Series.total s)

(* ---------- Table ---------- *)

(* ---------- Backoff ---------- *)

let test_backoff_doubles_and_caps () =
  let d n = Rina_util.Backoff.delay_for ~base:0.5 ~cap:3.0 n in
  check (Alcotest.float 1e-9) "1st" 0.5 (d 0);
  check (Alcotest.float 1e-9) "2nd" 1.0 (d 1);
  check (Alcotest.float 1e-9) "3rd" 2.0 (d 2);
  check (Alcotest.float 1e-9) "capped" 3.0 (d 3);
  check (Alcotest.float 1e-9) "stays capped" 3.0 (d 4);
  check (Alcotest.float 1e-9) "default cap is 30x base" 7.5
    (Rina_util.Backoff.delay_for ~base:0.25 9)

let test_backoff_jitter_bounds () =
  let rng = Prng.create 7 in
  for n = 0 to 20 do
    let full = Rina_util.Backoff.delay_for ~base:0.1 ~cap:5.0 n in
    let d = Rina_util.Backoff.delay_for ~rng ~base:0.1 ~cap:5.0 n in
    Alcotest.(check bool)
      (Printf.sprintf "jitter in [d/2, d] at %d" n)
      true
      (d >= (full /. 2.) -. 1e-12 && d <= full +. 1e-12)
  done;
  (* same seed, same stream: deterministic *)
  let a = Prng.create 42 and b = Prng.create 42 in
  for n = 0 to 10 do
    check (Alcotest.float 1e-12)
      (Printf.sprintf "replay %d" n)
      (Rina_util.Backoff.delay_for ~rng:a ~base:0.3 n)
      (Rina_util.Backoff.delay_for ~rng:b ~base:0.3 n)
  done

(* The raw doubling must never escape [0, cap], however absurd the
   attempt count: the exponent is clamped before the shift, so 2^n
   cannot overflow or go negative on its way to the cap. *)
let prop_backoff_delay_in_range =
  QCheck.Test.make ~name:"backoff delay in [0, cap] up to 10k attempts" ~count:300
    QCheck.(
      triple (int_bound 10_000)
        (float_range 1e-6 10.)
        (pair (float_range 1. 100.) (int_range 0 1_000_000)))
    (fun (n, base, (cap_mult, seed)) ->
      let cap = base *. cap_mult in
      let rng = Prng.create seed in
      let bare = Rina_util.Backoff.delay_for ~base ~cap n in
      let jit = Rina_util.Backoff.delay_for ~rng ~base ~cap n in
      bare >= 0. && bare <= cap +. 1e-12 && jit >= 0. && jit <= cap +. 1e-12)

let test_backoff_rejects_bad_args () =
  Alcotest.check_raises "base <= 0"
    (Invalid_argument "Backoff: base must be positive") (fun () ->
      ignore (Rina_util.Backoff.delay_for ~base:0. 0));
  Alcotest.check_raises "cap < base"
    (Invalid_argument "Backoff: cap must be >= base") (fun () ->
      ignore (Rina_util.Backoff.delay_for ~base:2.0 ~cap:1.0 0));
  Alcotest.check_raises "negative attempt"
    (Invalid_argument "Backoff.delay_for: negative attempt") (fun () ->
      ignore (Rina_util.Backoff.delay_for ~base:1.0 (-1)))

let test_table () =
  let t = Table.create ~title:"T" ~columns:[ "x"; "y" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_rowf t "%d | %s" 3 "four";
  let s = Table.render t in
  Alcotest.(check bool) "has title" true
    (Rina_util.Metrics.get (Rina_util.Metrics.create ()) "noop" = 0
     && String.length s > 0
     &&
     let contains needle =
       let n = String.length needle and m = String.length s in
       let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
       go 0
     in
     contains "== T ==" && contains "four" && contains "1");
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Table.add_row: 1 cells for 2 columns (table \"T\")") (fun () ->
      Table.add_row t [ "only-one" ])

let () =
  Alcotest.run "rina_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick test_prng_seed_changes_stream;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_prng_bernoulli_extremes;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "pick" `Quick test_prng_pick;
          QCheck_alcotest.to_alcotest prop_prng_uniformish;
        ] );
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "sorted output" `Quick test_heap_sorted_output;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "peek nondestructive" `Quick test_heap_peek_nondestructive;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "compact small heaps" `Quick test_heap_compact_small;
          Alcotest.test_case "level edges" `Quick test_heap_level_edges;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_interleaved_compaction;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "interleaved sorting" `Quick test_stats_interleaved_sorting;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip basics" `Quick test_codec_roundtrip_basics;
          Alcotest.test_case "writer bounds" `Quick test_codec_writer_bounds;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
          Alcotest.test_case "trailing" `Quick test_codec_trailing;
          Alcotest.test_case "bad bool" `Quick test_codec_bad_bool;
          QCheck_alcotest.to_alcotest prop_codec_string_roundtrip;
        ] );
      ( "misc",
        [
          Alcotest.test_case "ewma" `Quick test_ewma;
          Alcotest.test_case "ewma negative samples" `Quick test_ewma_negative_samples;
          Alcotest.test_case "token bucket" `Quick test_token_bucket;
          Alcotest.test_case "token bucket edges" `Quick test_token_bucket_edges;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "table" `Quick test_table;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "doubles and caps" `Quick
            test_backoff_doubles_and_caps;
          Alcotest.test_case "jitter bounds" `Quick test_backoff_jitter_bounds;
          Alcotest.test_case "rejects bad args" `Quick
            test_backoff_rejects_bad_args;
          QCheck_alcotest.to_alcotest prop_backoff_delay_in_range;
        ] );
      ( "json",
        [
          Alcotest.test_case "layout" `Quick test_json_layout;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "flight",
        [
          Alcotest.test_case "metrics clamp" `Quick test_metrics_clamp;
          Alcotest.test_case "metrics counter handles" `Quick
            test_metrics_counter_handles;
          Alcotest.test_case "metrics sorted export" `Quick test_metrics_sorted_export;
          Alcotest.test_case "span_of" `Quick test_span_of;
          Alcotest.test_case "reason strings" `Quick test_reason_strings;
          Alcotest.test_case "buffer" `Quick test_flight_buf;
          Alcotest.test_case "ring buffer" `Quick test_flight_buf_ring;
          Alcotest.test_case "json rejects garbage" `Quick test_flight_json_garbage;
          QCheck_alcotest.to_alcotest prop_flight_json_roundtrip;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "span_kept deterministic" `Quick
            test_span_kept_deterministic;
          Alcotest.test_case "span_kept rate" `Quick test_span_kept_rate;
          Alcotest.test_case "landmark kinds" `Quick test_event_kept_landmarks;
          QCheck_alcotest.to_alcotest prop_span_kept_monotone_in_rate;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "quantile accuracy" `Quick
            test_hist_quantile_accuracy;
          Alcotest.test_case "series cache coherent" `Quick
            test_series_cache_coherent;
          QCheck_alcotest.to_alcotest prop_hist_merge_commutative;
          QCheck_alcotest.to_alcotest prop_hist_merge_associative;
          QCheck_alcotest.to_alcotest prop_hist_merge_is_union;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick
            test_telemetry_jsonl_roundtrip;
          Alcotest.test_case "merge" `Quick test_telemetry_merge;
          Alcotest.test_case "negative counter rejected" `Quick
            test_telemetry_rejects_negative_counter;
          Alcotest.test_case "observe kept events" `Quick
            test_telemetry_observe_kept_only;
          QCheck_alcotest.to_alcotest prop_jsonl_decoders_total;
        ] );
    ]
