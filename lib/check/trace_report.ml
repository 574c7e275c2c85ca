(* Offline analysis over flight-recorder event lists: everything the
   [rina_trace] CLI prints is computed here so tests can assert on the
   numbers rather than on formatted output.  All functions tolerate
   out-of-order input (events are sorted where order matters), since
   sinks other than the in-memory buffer need not preserve emission
   order. *)

module Flight = Rina_util.Flight
module Stats = Rina_util.Stats

let by_time (a : Flight.event) (b : Flight.event) = compare a.Flight.time b.Flight.time

(* ---------- per-flow latency ---------- *)

(* A span is one PDU's journey: latency is first [Pdu_sent] to first
   [Pdu_recvd] with the same span id (first delivery, so retransmitted
   copies and duplicate receptions don't inflate the sample).  Samples
   are grouped by the receiving event's [flow] field — the span id is a
   hash and does not decompose back into (flow, seq). *)
let latency_by_flow events =
  let sent : (int, float) Hashtbl.t = Hashtbl.create 256 in
  let recvd : (int, float * int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (e : Flight.event) ->
      if e.Flight.span <> 0 then
        match e.Flight.kind with
        | Flight.Pdu_sent | Flight.Retransmit -> (
          match Hashtbl.find_opt sent e.Flight.span with
          | Some t when t <= e.Flight.time -> ()
          | Some _ | None -> Hashtbl.replace sent e.Flight.span e.Flight.time)
        | Flight.Pdu_recvd -> (
          match Hashtbl.find_opt recvd e.Flight.span with
          | Some (t, _) when t <= e.Flight.time -> ()
          | Some _ | None ->
            Hashtbl.replace recvd e.Flight.span (e.Flight.time, e.Flight.flow))
        | Flight.Pdu_dropped _ | Flight.Enqueued | Flight.Dequeued
        | Flight.Timer_set | Flight.Timer_fired | Flight.Handoff
        | Flight.Route_update | Flight.Custom _ ->
          ())
    events;
  let flows : (int, Stats.t) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun span (t_recv, flow) ->
      match Hashtbl.find_opt sent span with
      | Some t_sent when t_recv >= t_sent ->
        let st =
          match Hashtbl.find_opt flows flow with
          | Some st -> st
          | None ->
            let st = Stats.create () in
            Hashtbl.replace flows flow st;
            st
        in
        Stats.add st (t_recv -. t_sent)
      | Some _ | None -> ())
    recvd;
  Hashtbl.fold (fun flow st acc -> (flow, st) :: acc) flows []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---------- drops ---------- *)

let drop_breakdown events =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Flight.event) ->
      match e.Flight.kind with
      | Flight.Pdu_dropped r ->
        let key = Flight.reason_to_string r in
        Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      | _ -> ())
    events;
  Hashtbl.fold (fun reason n acc -> (reason, n) :: acc) tbl []
  |> List.sort (fun (ra, na) (rb, nb) ->
         if na <> nb then compare nb na else compare ra rb)

(* ---------- deliveries and the delivery gap ---------- *)

let deliveries ?component ?rank events =
  let keep (e : Flight.event) =
    (match e.Flight.kind with Flight.Pdu_recvd -> true | _ -> false)
    && (match rank with None -> true | Some r -> e.Flight.rank = r)
    &&
    match component with
    | None -> true
    | Some p -> String.starts_with ~prefix:p e.Flight.component
  in
  let times =
    Array.of_list
      (List.filter_map
         (fun e -> if keep e then Some e.Flight.time else None)
         events)
  in
  Array.sort compare times;
  times

(* Widest interval wins, strict comparison keeps the earliest interval
   on ties — so duplicate timestamps and out-of-order input give a
   deterministic answer. *)
let delivery_gap ?component events =
  let arr = deliveries ?component events in
  if Array.length arr < 2 then None
  else begin
    let best_gap = ref (arr.(1) -. arr.(0)) and best_start = ref arr.(0) in
    for i = 1 to Array.length arr - 2 do
      let gap = arr.(i + 1) -. arr.(i) in
      if gap > !best_gap then begin
        best_gap := gap;
        best_start := arr.(i)
      end
    done;
    Some (!best_gap, !best_start)
  end

(* ---------- per-fault blackout windows ---------- *)

(* The fault injector emits [Custom "fault:<label>"] at the apply time
   and [Custom "heal:<label>"] at the heal time of every plan step.
   The blackout attributed to a fault active on [a, h] is the widest
   interval between consecutive [Pdu_recvd] events that overlaps the
   active window — deliveries of PDUs already in flight right after
   the apply instant must not mask the outage, and the outage usually
   outlives the heal (retransmission backoff, reconvergence), which is
   exactly the recovery time under measurement.  [None] means no
   delivery ever happened after the fault applied — unbounded outage,
   the thing the chaos CI gate fails on.  A fault that hit during
   ramp-up (no deliveries at or before the heal) is charged from its
   apply time to the first delivery. *)
let blackouts ?component ?rank events =
  let recvs = deliveries ?component ?rank events in
  let tagged prefix =
    let plen = String.length prefix in
    List.filter_map
      (fun (e : Flight.event) ->
        match e.Flight.kind with
        | Flight.Custom s when String.starts_with ~prefix s ->
          Some (e.Flight.time, String.sub s plen (String.length s - plen))
        | _ -> None)
      events
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  in
  let faults = tagged "fault:" and heals = tagged "heal:" in
  List.map
    (fun (a, label) ->
      let h =
        match
          List.find_opt (fun (t, l) -> t >= a && String.equal l label) heals
        with
        | Some (t, _) -> t
        | None -> a
      in
      let after =
        Array.fold_left
          (fun acc x -> if x > a && acc = None then Some x else acc)
          None recvs
      in
      let gap =
        match after with
        | None -> None
        | Some first_after ->
          let best = ref 0. in
          for i = 0 to Array.length recvs - 2 do
            if recvs.(i + 1) > a && recvs.(i) <= h then
              best := Float.max !best (recvs.(i + 1) -. recvs.(i))
          done;
          if !best > 0. then Some !best else Some (first_after -. a)
      in
      (label, a, gap))
    faults

(* ---------- queue / window occupancy timelines ---------- *)

let queue_timeline events =
  let tbl : (string, (float * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Flight.event) ->
      match e.Flight.kind with
      | Flight.Custom "probe" ->
        let r =
          match Hashtbl.find_opt tbl e.Flight.component with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.replace tbl e.Flight.component r;
            r
        in
        r := (e.Flight.time, e.Flight.size) :: !r
      | _ -> ())
    events;
  Hashtbl.fold
    (fun comp r acc -> (comp, List.sort compare (List.rev !r)) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---------- span trees ---------- *)

(* Events sharing a span id, in time order: the PDU's path through the
   layers.  Spans are ordered by first appearance. *)
let span_tree ?(max_spans = max_int) events =
  let tbl : (int, Flight.event list ref) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun (e : Flight.event) ->
      if e.Flight.span <> 0 then
        match Hashtbl.find_opt tbl e.Flight.span with
        | Some r -> r := e :: !r
        | None ->
          Hashtbl.replace tbl e.Flight.span (ref [ e ]);
          order := e.Flight.span :: !order)
    events;
  let spans = List.rev !order in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  List.map
    (fun span ->
      let evs = List.stable_sort by_time (List.rev !(Hashtbl.find tbl span)) in
      ( span,
        List.map
          (fun (e : Flight.event) ->
            (e.Flight.time, e.Flight.component, Flight.kind_to_string e.Flight.kind))
          evs ))
    (take max_spans spans)

let sequence_diagram ?(max_spans = 10) events =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (span, steps) ->
      let flow, seq =
        match
          List.find_opt
            (fun (e : Flight.event) -> e.Flight.span = span)
            events
        with
        | Some e -> (e.Flight.flow, e.Flight.seq)
        | None -> (0, 0)
      in
      Buffer.add_string buf
        (Printf.sprintf "span %012x  flow=%d seq=%d\n" span flow seq);
      let prev = ref None in
      List.iter
        (fun (time, comp, label) ->
          let arrow =
            match !prev with
            | Some p when p <> comp -> Printf.sprintf "%s -> %s" p comp
            | Some _ | None -> comp
          in
          prev := Some comp;
          Buffer.add_string buf
            (Printf.sprintf "  %12.6f  %-40s %s\n" time arrow label))
        steps;
      Buffer.add_char buf '\n')
    (span_tree ~max_spans events);
  Buffer.contents buf

(* ---------- sampling metadata ---------- *)

(* A head-sampled trace carries its keep rate as a marker event
   ([Trace.attach] emits it first thing); analyses use it to scale
   sampled span counts back to population estimates. *)
let sample_ppm events =
  List.find_map
    (fun (e : Flight.event) ->
      match e.Flight.kind with
      | Flight.Custom "meta:sample_ppm" when e.Flight.component = "trace" ->
        Some e.Flight.size
      | _ -> None)
    events

let scale_count ~ppm n =
  if ppm <= 0 || ppm >= 1_000_000 then n
  else int_of_float (Float.round (float_of_int n *. 1_000_000. /. float_of_int ppm))

(* ---------- summary ---------- *)

let summary events =
  let n = List.length events in
  if n = 0 then "empty trace\n"
  else begin
    let t_min = ref infinity and t_max = ref neg_infinity in
    let comps : (string, unit) Hashtbl.t = Hashtbl.create 32 in
    let kinds : (string, int) Hashtbl.t = Hashtbl.create 32 in
    let spans : (int, unit) Hashtbl.t = Hashtbl.create 256 in
    List.iter
      (fun (e : Flight.event) ->
        if e.Flight.time < !t_min then t_min := e.Flight.time;
        if e.Flight.time > !t_max then t_max := e.Flight.time;
        Hashtbl.replace comps e.Flight.component ();
        if e.Flight.span <> 0 then Hashtbl.replace spans e.Flight.span ();
        let key =
          match e.Flight.kind with
          | Flight.Pdu_dropped _ -> "pdu_dropped"
          | Flight.Custom _ -> "custom"
          | k -> Flight.kind_to_string k
        in
        Hashtbl.replace kinds key
          (1 + Option.value ~default:0 (Hashtbl.find_opt kinds key)))
      events;
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "%d events, %d components, %d spans, t=[%g, %g]\n" n
         (Hashtbl.length comps) (Hashtbl.length spans) !t_min !t_max);
    (match sample_ppm events with
     | Some ppm when ppm > 0 && ppm < 1_000_000 ->
       Buffer.add_string buf
         (Printf.sprintf
            "head-sampled at %g%% of spans (~%d spans in the full run); \
             span-derived counts are samples\n"
            (float_of_int ppm /. 10_000.)
            (scale_count ~ppm (Hashtbl.length spans)))
     | Some _ | None -> ());
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
    |> List.sort (fun (ka, na) (kb, nb) ->
           if na <> nb then compare nb na else compare ka kb)
    |> List.iter (fun (k, v) ->
           Buffer.add_string buf (Printf.sprintf "  %-16s %d\n" k v));
    Buffer.contents buf
  end
