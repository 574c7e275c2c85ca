(* Flight recorder: the domain-global typed event stream every layer
   emits into.  Lives at the bottom of the library stack (engine, links,
   EFCP, RMT and the TCP/IP baseline all depend on rina_util) so one
   schema serves the whole simulator.

   The hot-path contract mirrors Invariant: emission sites are guarded
   by [if enabled () then emit ...] at the call site — when tracing is
   off the cost is a domain-local load and a branch, and no closure or
   string is allocated.  [emit] itself does not re-check the flag.

   The recorder state lives in domain-local storage so parallel trial
   runners ([Rina_exp.Par]) can attach one recorder per domain without
   the workers stomping on each other's clock and sink. *)

type reason =
  | R_queue_full
  | R_link_down
  | R_blackhole
  | R_loss
  | R_crc
  | R_decode
  | R_ttl_expired
  | R_no_route
  | R_ingress_filter
  | R_stale
  | R_duplicate
  | R_corrupt
  | R_dup
  | R_reorder_overflow
  | R_congestion
  | R_endpoint_crash
  | R_path_down
  | R_other of string

type kind =
  | Pdu_sent
  | Pdu_recvd
  | Pdu_dropped of reason
  | Enqueued
  | Dequeued
  | Timer_set
  | Timer_fired
  | Retransmit
  | Handoff
  | Route_update
  | Custom of string

type event = {
  time : float;
  component : string;
  kind : kind;
  flow : int;  (* flow identity (CEP / port / tuple hash); 0 = none *)
  rank : int;  (* DIF rank; 0 = unknown / not applicable *)
  seq : int;
  size : int;  (* bytes for PDU events, sampled value for probes *)
  span : int;  (* PDU trace id joining events across layers; 0 = none *)
}

(* Exact per-kind counts bumped inline by [emit] for every event,
   kept or shed.  A plain record of mutable ints — no closure call, no
   clock read, no allocation — so online aggregation of a shed event
   costs a couple of increments.  [Telemetry] owns one per registry. *)
type tally = {
  mutable t_events : int;
  mutable t_sent : int;
  mutable t_recvd : int;
  mutable t_dropped : int;
  mutable t_retransmit : int;
  mutable t_timer : int;  (* Timer_set + Timer_fired *)
}

let create_tally () =
  {
    t_events = 0;
    t_sent = 0;
    t_recvd = 0;
    t_dropped = 0;
    t_retransmit = 0;
    t_timer = 0;
  }

(* The recorder is handed out by [cur] so a hot emission site pays for
   exactly one domain-local lookup: [let r = cur () in if on r then
   emit_to r ...].  The tally field always holds a record (a per-domain
   scratch one when no telemetry is installed) so the bump needs no
   option branch. *)
type recorder = {
  mutable r_on : bool;
  mutable clock : unit -> float;
  mutable sink : event -> unit;
  mutable keep_ppm : int;  (* head-sampling rate in parts-per-million *)
  mutable tap : (event -> unit) option;  (* sees every *kept* event *)
  mutable tally : tally;  (* counts every event, kept or shed *)
}

let full_ppm = 1_000_000

let key =
  Domain.DLS.new_key (fun () ->
      {
        r_on = false;
        clock = (fun () -> 0.);
        sink = (fun _ -> ());
        keep_ppm = full_ppm;
        tap = None;
        tally = create_tally ();  (* per-domain scratch tally *)
      })

let cur () = Domain.DLS.get key

let on r = r.r_on

let ctx = cur

let enabled () = (ctx ()).r_on

let set_enabled b = (ctx ()).r_on <- b

let set_clock f = (ctx ()).clock <- f

let set_sink f = (ctx ()).sink <- f

let set_tap f = (ctx ()).tap <- f

let set_tally y =
  let c = ctx () in
  match y with
  | Some y -> c.tally <- y
  | None -> c.tally <- create_tally ()

let ppm_of_rate r =
  if not (r > 0. && r <= 1.) then
    invalid_arg "Flight.ppm_of_rate: rate must be in (0, 1]";
  max 1 (int_of_float (Float.round (r *. float_of_int full_ppm)))

let set_sample_rate r = (ctx ()).keep_ppm <- ppm_of_rate r

let sample_ppm () = (ctx ()).keep_ppm

(* The keep/drop decision is a pure function of the span id alone —
   nothing from the clock or any counter — so every replay, every
   relay on the path and every Par worker makes the same call for the
   same PDU, and a sampled trace stays span-complete: a kept span keeps
   all of its events, end to end. *)
let span_kept ~keep_ppm span =
  let h = span * 0xC2B2AE35 in
  let h = h lxor (h lsr 29) in
  let h = h * 0x27D4EB2F in
  let h = h lxor (h lsr 31) in
  (h land 0x3FFFFFFF) mod full_ppm < keep_ppm

(* Under head sampling (keep_ppm < 10^6) an event survives when:
   - it is a landmark kind (Custom probes/markers, drops, Handoff,
     Route_update) — low-volume, anomalous, or load-bearing for
     analysis; or
   - it carries a span that the hash keeps.
   High-volume span-less events (link frames are opaque and carry no
   span, likewise raw timer churn) are exactly what sampling exists to
   shed; their aggregates survive in the tally instead. *)
let event_kept ~keep_ppm ~span kind =
  keep_ppm >= full_ppm
  ||
  match kind with
  | Custom _ | Handoff | Route_update | Pdu_dropped _ -> true
  | Pdu_sent | Pdu_recvd | Enqueued | Dequeued | Timer_set | Timer_fired
  | Retransmit ->
    span <> 0 && span_kept ~keep_ppm span

(* Slow half of [emit_to]: construct the event, tap it, sink it.  Out
   of line so the shed path below stays small. *)
let[@inline never] emit_kept c ~component ~flow ~rank ~seq ~size ~span kind =
  let e = { time = c.clock (); component; kind; flow; rank; seq; size; span } in
  (match c.tap with None -> () | Some tap -> tap e);
  c.sink e

let emit_to c ~component ?(flow = 0) ?(rank = 0) ?(seq = 0) ?(size = 0)
    ?(span = 0) kind =
  (* One match drives both halves of the hot path: the tally bump and
     the keep/shed decision.  A shed event is never even constructed —
     sampling costs the increments here and nothing else. *)
  let y = c.tally in
  y.t_events <- y.t_events + 1;
  let keep =
    match kind with
    | Pdu_sent ->
      y.t_sent <- y.t_sent + 1;
      c.keep_ppm >= full_ppm || (span <> 0 && span_kept ~keep_ppm:c.keep_ppm span)
    | Pdu_recvd ->
      y.t_recvd <- y.t_recvd + 1;
      c.keep_ppm >= full_ppm || (span <> 0 && span_kept ~keep_ppm:c.keep_ppm span)
    | Timer_set | Timer_fired ->
      y.t_timer <- y.t_timer + 1;
      c.keep_ppm >= full_ppm || (span <> 0 && span_kept ~keep_ppm:c.keep_ppm span)
    | Enqueued | Dequeued ->
      c.keep_ppm >= full_ppm || (span <> 0 && span_kept ~keep_ppm:c.keep_ppm span)
    | Retransmit ->
      y.t_retransmit <- y.t_retransmit + 1;
      c.keep_ppm >= full_ppm || (span <> 0 && span_kept ~keep_ppm:c.keep_ppm span)
    | Pdu_dropped _ ->
      y.t_dropped <- y.t_dropped + 1;
      true
    | Handoff | Route_update | Custom _ -> true
  in
  if keep then emit_kept c ~component ~flow ~rank ~seq ~size ~span kind

let emit ~component ?flow ?rank ?seq ?size ?span kind =
  emit_to (cur ()) ~component ?flow ?rank ?seq ?size ?span kind

(* A PDU's trace id is a deterministic mix of its flow key and sequence
   number, so the sender, every relay that decodes the PDU and the
   receiver all compute the same id without carrying anything extra on
   the wire.  Fibonacci-hash style mixing keeps distinct (flow, seq)
   pairs from colliding in practice; ids are clamped positive and
   non-zero (0 means "no span"). *)
let span_of ~flow ~seq =
  let h = (flow * 0x9E3779B1) lxor (seq * 0x85EBCA77) in
  let h = h lxor (h lsr 31) in
  let h = h land 0x3FFFFFFFFFFF in
  if h = 0 then 1 else h

let reason_to_string = function
  | R_queue_full -> "queue_full"
  | R_link_down -> "link_down"
  | R_blackhole -> "blackhole"
  | R_loss -> "loss"
  | R_crc -> "crc"
  | R_decode -> "decode"
  | R_ttl_expired -> "ttl_expired"
  | R_no_route -> "no_route"
  | R_ingress_filter -> "ingress_filter"
  | R_stale -> "stale"
  | R_duplicate -> "duplicate"
  | R_corrupt -> "corrupt"
  | R_dup -> "dup"
  | R_reorder_overflow -> "reorder_overflow"
  | R_congestion -> "congestion"
  | R_endpoint_crash -> "endpoint_crash"
  | R_path_down -> "path_down"
  | R_other s -> s

let reason_of_string = function
  | "queue_full" -> R_queue_full
  | "link_down" -> R_link_down
  | "blackhole" -> R_blackhole
  | "loss" -> R_loss
  | "crc" -> R_crc
  | "decode" -> R_decode
  | "ttl_expired" -> R_ttl_expired
  | "no_route" -> R_no_route
  | "ingress_filter" -> R_ingress_filter
  | "stale" -> R_stale
  | "duplicate" -> R_duplicate
  | "corrupt" -> R_corrupt
  | "dup" -> R_dup
  | "reorder_overflow" -> R_reorder_overflow
  | "congestion" -> R_congestion
  | "endpoint_crash" -> R_endpoint_crash
  | "path_down" -> R_path_down
  | s -> R_other s

let kind_to_string = function
  | Pdu_sent -> "pdu_sent"
  | Pdu_recvd -> "pdu_recvd"
  | Pdu_dropped r -> "pdu_dropped:" ^ reason_to_string r
  | Enqueued -> "enqueued"
  | Dequeued -> "dequeued"
  | Timer_set -> "timer_set"
  | Timer_fired -> "timer_fired"
  | Retransmit -> "retransmit"
  | Handoff -> "handoff"
  | Route_update -> "route_update"
  | Custom s -> s

(* ---------- O(1)-append event buffer (optionally a bounded ring) ---------- *)

module Buf = struct
  type t = {
    mutable arr : event array;
    mutable len : int;
    mutable start : int;  (* ring read offset; 0 while growing *)
    capacity : int;  (* 0 = unbounded; > 0 = keep only the newest N *)
    mutable dropped : int;  (* oldest events overwritten in ring mode *)
  }

  let dummy =
    {
      time = 0.;
      component = "";
      kind = Custom "";
      flow = 0;
      rank = 0;
      seq = 0;
      size = 0;
      span = 0;
    }

  let create ?(capacity = 0) () =
    if capacity < 0 then invalid_arg "Flight.Buf.create: negative capacity";
    { arr = [||]; len = 0; start = 0; capacity; dropped = 0 }

  let add b e =
    if b.capacity > 0 && b.len = b.capacity then begin
      (* full ring: overwrite the oldest event in place *)
      b.arr.(b.start) <- e;
      b.start <- (b.start + 1) mod b.capacity;
      b.dropped <- b.dropped + 1
    end
    else begin
      if b.len = Array.length b.arr then begin
        let cap = max 64 (2 * Array.length b.arr) in
        let cap = if b.capacity > 0 then min cap b.capacity else cap in
        let cap = max cap (b.len + 1) in
        let arr = Array.make cap dummy in
        Array.blit b.arr 0 arr 0 b.len;
        b.arr <- arr
      end;
      (* start is 0 until the ring first fills, so append is in place *)
      b.arr.(b.len) <- e;
      b.len <- b.len + 1
    end

  let length b = b.len
  let dropped b = b.dropped

  let get b i =
    if i < 0 || i >= b.len then invalid_arg "Flight.Buf.get: out of bounds";
    b.arr.((b.start + i) mod Array.length b.arr)

  let iter f b =
    for i = 0 to b.len - 1 do
      f (get b i)
    done

  let to_list b = List.init b.len (get b)

  let clear b =
    b.arr <- [||];
    b.len <- 0;
    b.start <- 0;
    b.dropped <- 0
end

(* ---------- JSONL codec ---------- *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Shortest representation that round-trips exactly. *)
let json_float f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let event_to_json e =
  let b = Buffer.create 96 in
  Buffer.add_string b "{\"t\":";
  Buffer.add_string b (json_float e.time);
  Buffer.add_string b ",\"c\":\"";
  json_escape b e.component;
  Buffer.add_string b "\",\"k\":\"";
  (match e.kind with
   | Pdu_sent -> Buffer.add_string b "pdu_sent"
   | Pdu_recvd -> Buffer.add_string b "pdu_recvd"
   | Pdu_dropped _ -> Buffer.add_string b "pdu_dropped"
   | Enqueued -> Buffer.add_string b "enqueued"
   | Dequeued -> Buffer.add_string b "dequeued"
   | Timer_set -> Buffer.add_string b "timer_set"
   | Timer_fired -> Buffer.add_string b "timer_fired"
   | Retransmit -> Buffer.add_string b "retransmit"
   | Handoff -> Buffer.add_string b "handoff"
   | Route_update -> Buffer.add_string b "route_update"
   | Custom _ -> Buffer.add_string b "custom");
  Buffer.add_char b '"';
  (match e.kind with
   | Pdu_dropped r ->
     Buffer.add_string b ",\"r\":\"";
     json_escape b (reason_to_string r);
     Buffer.add_char b '"'
   | Custom s ->
     Buffer.add_string b ",\"n\":\"";
     json_escape b s;
     Buffer.add_char b '"'
   | _ -> ());
  let int_field name v =
    if v <> 0 then begin
      Buffer.add_string b ",\"";
      Buffer.add_string b name;
      Buffer.add_string b "\":";
      Buffer.add_string b (string_of_int v)
    end
  in
  int_field "flow" e.flow;
  int_field "rank" e.rank;
  int_field "seq" e.seq;
  int_field "size" e.size;
  int_field "span" e.span;
  Buffer.add_char b '}';
  Buffer.contents b

exception Json_error of string

(* Minimal parser for the flat objects we emit: string keys mapping to
   string or number values.  Not a general JSON parser. *)
let parse_flat_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Json_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "bad escape";
        (match s.[!pos] with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !pos + 4 >= n then fail "truncated \\u escape";
           (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
            | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
            | Some _ -> Buffer.add_char b '?'
            | None -> fail "bad \\u escape");
           pos := !pos + 4
         | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        incr pos;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false)
    do
      incr pos
    done;
    if start = !pos then fail "expected value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if !pos < n && s.[!pos] = '}' then incr pos
  else begin
    let rec members () =
      let key = parse_string () in
      expect ':';
      skip_ws ();
      let v =
        if !pos < n && s.[!pos] = '"' then `S (parse_string ())
        else `N (parse_number ())
      in
      fields := (key, v) :: !fields;
      skip_ws ();
      if !pos < n && s.[!pos] = ',' then begin
        incr pos;
        members ()
      end
      else expect '}'
    in
    members ()
  end;
  skip_ws ();
  if !pos <> n then fail "trailing data";
  List.rev !fields

let event_of_json line =
  match parse_flat_json line with
  | exception Json_error msg -> Error msg
  | fields ->
    let str name =
      match List.assoc_opt name fields with Some (`S s) -> Some s | _ -> None
    in
    let num name =
      match List.assoc_opt name fields with Some (`N f) -> Some f | _ -> None
    in
    let int name = match num name with Some f -> int_of_float f | None -> 0 in
    (match (num "t", str "c", str "k") with
     | Some time, Some component, Some k ->
       let kind =
         match k with
         | "pdu_sent" -> Ok Pdu_sent
         | "pdu_recvd" -> Ok Pdu_recvd
         | "pdu_dropped" ->
           Ok
             (Pdu_dropped
                (match str "r" with
                 | Some r -> reason_of_string r
                 | None -> R_other "unknown"))
         | "enqueued" -> Ok Enqueued
         | "dequeued" -> Ok Dequeued
         | "timer_set" -> Ok Timer_set
         | "timer_fired" -> Ok Timer_fired
         | "retransmit" -> Ok Retransmit
         | "handoff" -> Ok Handoff
         | "route_update" -> Ok Route_update
         | "custom" ->
           Ok (Custom (match str "n" with Some n -> n | None -> ""))
         | k -> Error (Printf.sprintf "unknown event kind %S" k)
       in
       (match kind with
        | Error e -> Error e
        | Ok kind ->
          Ok
            {
              time;
              component;
              kind;
              flow = int "flow";
              rank = int "rank";
              seq = int "seq";
              size = int "size";
              span = int "span";
            })
     | _ -> Error "missing required field (t, c or k)")
