(* Flight recorder: the typed event stream every layer emits into.
   Lives at the bottom of the library stack (engine, links, EFCP, RMT
   and the TCP/IP baseline all depend on rina_util) so one schema
   serves the whole simulator.

   A recorder is a plain value owned by one engine.  Emission sites are
   guarded by [if on r then emit_to r ...] at the call site: when
   tracing is off the cost is a branch, and no closure or string is
   allocated.  [emit_to] itself does not re-check the flag. *)

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

(* The tally field always holds a record (the recorder's own scratch
   one when no telemetry is installed) so the bump needs no option
   branch. *)
type recorder = {
  mutable r_on : bool;
  mutable clock : unit -> float;
  mutable sink : event -> unit;
  mutable keep_ppm : int;  (* head-sampling rate in parts-per-million *)
  mutable tap : (event -> unit) option;  (* sees every *kept* event *)
  mutable tally : tally;  (* counts every event, kept or shed *)
}

let full_ppm = 1_000_000

let create () =
  {
    r_on = false;
    clock = (fun () -> 0.);
    sink = ignore;
    keep_ppm = full_ppm;
    tap = None;
    tally = create_tally ();
  }

let on r = r.r_on

let set_enabled r b = r.r_on <- b

let set_clock r f = r.clock <- f

let set_sink r f = r.sink <- f

let set_tap r f = r.tap <- f

let set_tally r y = r.tally <- (match y with Some y -> y | None -> create_tally ())

let ppm_of_rate r =
  if not (r > 0. && r <= 1.) then
    invalid_arg "Flight.ppm_of_rate: rate must be in (0, 1]";
  max 1 (int_of_float (Float.round (r *. float_of_int full_ppm)))

let set_sample_rate r rate = r.keep_ppm <- ppm_of_rate rate

let sample_ppm r = r.keep_ppm

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

(* One name table per variant serves display, encoding and decoding
   alike; [R_other], [Pdu_dropped] and [Custom] carry their own text. *)
let reason_names =
  [
    (R_queue_full, "queue_full");
    (R_link_down, "link_down");
    (R_blackhole, "blackhole");
    (R_loss, "loss");
    (R_crc, "crc");
    (R_decode, "decode");
    (R_ttl_expired, "ttl_expired");
    (R_no_route, "no_route");
    (R_ingress_filter, "ingress_filter");
    (R_stale, "stale");
    (R_duplicate, "duplicate");
    (R_corrupt, "corrupt");
    (R_dup, "dup");
    (R_reorder_overflow, "reorder_overflow");
    (R_congestion, "congestion");
    (R_endpoint_crash, "endpoint_crash");
    (R_path_down, "path_down");
  ]

let reason_to_string = function
  | R_other s -> s
  | r -> List.assoc r reason_names

let reason_of_string s =
  match List.find_opt (fun (_, name) -> String.equal name s) reason_names with
  | Some (r, _) -> r
  | None -> R_other s

let kind_names =
  [
    (Pdu_sent, "pdu_sent");
    (Pdu_recvd, "pdu_recvd");
    (Enqueued, "enqueued");
    (Dequeued, "dequeued");
    (Timer_set, "timer_set");
    (Timer_fired, "timer_fired");
    (Retransmit, "retransmit");
    (Handoff, "handoff");
    (Route_update, "route_update");
  ]

let kind_to_string = function
  | Pdu_dropped r -> "pdu_dropped:" ^ reason_to_string r
  | Custom s -> s
  | k -> List.assoc k kind_names

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

let event_to_json e =
  let k, payload =
    match e.kind with
    | Pdu_dropped r -> ("pdu_dropped", [ ("r", Json.Str (reason_to_string r)) ])
    | Custom s -> ("custom", [ ("n", Json.Str s) ])
    | k -> (List.assoc k kind_names, [])
  in
  let int name v = if v = 0 then [] else [ (name, Json.int v) ] in
  Json.to_string
    (Json.Obj
       ((("t", Json.float e.time) :: ("c", Json.Str e.component)
         :: ("k", Json.Str k) :: payload)
       @ int "flow" e.flow @ int "rank" e.rank @ int "seq" e.seq
       @ int "size" e.size @ int "span" e.span))

let event_of_json line =
  match Json.parse_line line with
  | Error e -> Error e
  | Ok fields ->
    let get conv name = Option.bind (List.assoc_opt name fields) conv in
    let str = get Json.to_str and num = get Json.to_num in
    let int name = match num name with Some f -> int_of_float f | None -> 0 in
    let kind k =
      match k with
      | "pdu_dropped" ->
        Ok
          (Pdu_dropped
             (match str "r" with
              | Some r -> reason_of_string r
              | None -> R_other "unknown"))
      | "custom" -> Ok (Custom (Option.value ~default:"" (str "n")))
      | k -> (
        match List.find_opt (fun (_, name) -> String.equal name k) kind_names with
        | Some (kind, _) -> Ok kind
        | None -> Error (Printf.sprintf "unknown event kind %S" k))
    in
    match (num "t", str "c", str "k") with
    | Some time, Some component, Some k ->
      Result.map
        (fun kind ->
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
        (kind k)
    | _ -> Error "missing required field (t, c or k)"
