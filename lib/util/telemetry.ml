(* Streaming telemetry registry — the Flight aggregation pipeline.

   Hot-path discipline: exact per-kind counts ride the Flight [tally]
   (mutable int fields bumped inline by [emit_to], so a shed event costs
   two increments and nothing else), while [observe] — installed as the
   Flight tap — runs only on kept events: sampled spans and the
   landmark kinds.  Hashtable lookups are therefore reserved for rare
   events (drops, probes, handoffs) and the head-sampled latency
   spans. *)

let full_ppm = 1_000_000

type snapshot = {
  at : float;
  events : int;
  sent : int;
  recvd : int;
  dropped : int;
}

type t = {
  bucket : float;
  mutable lat_ppm : int;
  (* hot counters: the Flight tally, bumped inline by [emit_to] *)
  tally : Flight.tally;
  extras : Metrics.t;  (* named counters past the tally's fixed ones *)
  hists : (string, Sketch.Hist.t) Hashtbl.t;
  series : (string, Sketch.Series.t) Hashtbl.t;
  sent_series : Sketch.Series.t;  (* aliases into [series] *)
  recvd_series : Sketch.Series.t;
  (* first-send time of head-sampled spans awaiting their receive *)
  pending : (int, float) Hashtbl.t;
  mutable pending_carry : int;  (* unmatched spans from merged shards *)
  mutable snaps : snapshot list;  (* newest first *)
  mutable s_at : float;
  mutable s_events : int;
  mutable s_sent : int;
  mutable s_recvd : int;
  mutable s_dropped : int;
}

let create ?(series_bucket = 0.5) () =
  if not (series_bucket > 0.) then
    invalid_arg "Telemetry.create: series_bucket <= 0";
  let sent_series = Sketch.Series.create ~bucket:series_bucket in
  let recvd_series = Sketch.Series.create ~bucket:series_bucket in
  let series = Hashtbl.create 8 in
  Hashtbl.add series "sent" sent_series;
  Hashtbl.add series "recvd" recvd_series;
  {
    bucket = series_bucket;
    lat_ppm = full_ppm;
    tally = Flight.create_tally ();
    extras = Metrics.create ();
    hists = Hashtbl.create 8;
    series;
    sent_series;
    recvd_series;
    pending = Hashtbl.create 64;
    pending_carry = 0;
    snaps = [];
    s_at = 0.;
    s_events = 0;
    s_sent = 0;
    s_recvd = 0;
    s_dropped = 0;
  }

let set_latency_ppm t ppm = t.lat_ppm <- ppm
let latency_ppm t = t.lat_ppm
let tally t = t.tally

let hist_for t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = Sketch.Hist.create () in
    Hashtbl.add t.hists name h;
    h

let series_for t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> s
  | None ->
    let s = Sketch.Series.create ~bucket:t.bucket in
    Hashtbl.add t.series name s;
    s

let count t name = Metrics.incr t.extras name

let add_sample t name v = Sketch.Hist.add (hist_for t name) v

let counter t name =
  match name with
  | "events" -> t.tally.Flight.t_events
  | "sent" -> t.tally.Flight.t_sent
  | "recvd" -> t.tally.Flight.t_recvd
  | "dropped" -> t.tally.Flight.t_dropped
  | "retransmit" -> t.tally.Flight.t_retransmit
  | "timer" -> t.tally.Flight.t_timer
  | "latency_pending" -> Hashtbl.length t.pending + t.pending_carry
  | name -> Metrics.get t.extras name

let fixed_counters =
  [ "events"; "sent"; "recvd"; "dropped"; "retransmit"; "timer"; "latency_pending" ]

let counter_names t = fixed_counters @ List.map fst (Metrics.to_list t.extras)

let hist t name = Hashtbl.find_opt t.hists name
let series t name = Hashtbl.find_opt t.series name

let sorted_names tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let hist_names t = sorted_names t.hists
let series_names t = sorted_names t.series

let span_tracked t span =
  span <> 0
  && (t.lat_ppm >= full_ppm || Flight.span_kept ~keep_ppm:t.lat_ppm span)

(* [observe t] is the function installed as the Flight tap, so it sees
   only kept events: sampled spans plus the landmark kinds (drops,
   probes, handoffs, route updates).  Counts of shed events ride the
   tally, bumped inline by [Flight.emit_to]. *)
let observe t (e : Flight.event) =
  match e.kind with
  | Flight.Pdu_sent ->
    if span_tracked t e.span && not (Hashtbl.mem t.pending e.span) then
      Hashtbl.add t.pending e.span e.time
  | Flight.Pdu_recvd ->
    if e.span <> 0 then begin
      match Hashtbl.find_opt t.pending e.span with
      | Some t0 ->
        Hashtbl.remove t.pending e.span;
        Sketch.Hist.add (hist_for t "latency") (e.time -. t0)
      | None -> ()
    end
  | Flight.Pdu_dropped r ->
    Sketch.Series.add (series_for t ("drop:" ^ Flight.reason_to_string r)) e.time
  | Flight.Handoff -> count t "handoff"
  | Flight.Route_update -> count t "route_update"
  | Flight.Custom "probe" ->
    Sketch.Hist.add (hist_for t ("probe:" ^ e.component)) (float_of_int e.size)
  | Flight.Custom (("ecn_mark" | "pushback_mark") as mark) ->
    (* congestion marking is a landmark, never sampled away, so these
       counters are exact — `rina_stats` shows how hard the AQM and
       the layer push-back worked during the run *)
    count t mark
  | Flight.Custom (("path_up" | "path_suspect" | "path_down") as transition) ->
    (* path-health transitions are landmarks too: exact counts of how
       often the multipath monitor demoted and revived paths *)
    count t transition
  | Flight.Custom _ | Flight.Timer_set | Flight.Timer_fired | Flight.Retransmit
  | Flight.Enqueued | Flight.Dequeued ->
    ()

let install t r =
  Flight.set_tally r (Some t.tally);
  Flight.set_tap r (Some (observe t))

let uninstall r =
  Flight.set_tally r None;
  Flight.set_tap r None

(* ---------- snapshots ---------- *)

let snap t ~now =
  let y = t.tally in
  let s =
    {
      at = now;
      events = y.Flight.t_events - t.s_events;
      sent = y.Flight.t_sent - t.s_sent;
      recvd = y.Flight.t_recvd - t.s_recvd;
      dropped = y.Flight.t_dropped - t.s_dropped;
    }
  in
  (* The sent/recvd timelines are fed from snapshot deltas (shed frames
     never reach the tap); each interval's count is recorded at the
     interval's midpoint so it lands in the series bucket covering the
     time the traffic actually flowed. *)
  let mid = 0.5 *. (t.s_at +. now) in
  if s.sent > 0 then Sketch.Series.add ~n:s.sent t.sent_series mid;
  if s.recvd > 0 then Sketch.Series.add ~n:s.recvd t.recvd_series mid;
  t.s_at <- now;
  t.s_events <- y.Flight.t_events;
  t.s_sent <- y.Flight.t_sent;
  t.s_recvd <- y.Flight.t_recvd;
  t.s_dropped <- y.Flight.t_dropped;
  t.snaps <- s :: t.snaps;
  s

let snapshots t = List.rev t.snaps

(* ---------- merge ---------- *)

let merge_into ~into other =
  if into.bucket <> other.bucket then
    invalid_arg "Telemetry.merge_into: series bucket widths differ";
  into.lat_ppm <- min into.lat_ppm other.lat_ppm;
  let a = into.tally and b = other.tally in
  a.Flight.t_events <- a.Flight.t_events + b.Flight.t_events;
  a.Flight.t_sent <- a.Flight.t_sent + b.Flight.t_sent;
  a.Flight.t_recvd <- a.Flight.t_recvd + b.Flight.t_recvd;
  a.Flight.t_dropped <- a.Flight.t_dropped + b.Flight.t_dropped;
  a.Flight.t_retransmit <- a.Flight.t_retransmit + b.Flight.t_retransmit;
  a.Flight.t_timer <- a.Flight.t_timer + b.Flight.t_timer;
  List.iter (fun (name, n) -> Metrics.add into.extras name n)
    (Metrics.to_list other.extras);
  Hashtbl.iter
    (fun name h -> Sketch.Hist.merge_into ~into:(hist_for into name) h)
    other.hists;
  Hashtbl.iter
    (fun name s -> Sketch.Series.merge_into ~into:(series_for into name) s)
    other.series;
  into.pending_carry <-
    into.pending_carry + other.pending_carry + Hashtbl.length other.pending;
  into.snaps <- other.snaps @ into.snaps;
  into.s_at <- Float.max into.s_at other.s_at;
  into.s_events <- a.Flight.t_events;
  into.s_sent <- a.Flight.t_sent;
  into.s_recvd <- a.Flight.t_recvd;
  into.s_dropped <- a.Flight.t_dropped

(* ---------- canonical JSONL ---------- *)

let pack pairs =
  String.concat ";" (List.map (fun (i, c) -> Printf.sprintf "%d:%d" i c) pairs)

let unpack s =
  if s = "" then Ok []
  else
    let parts = String.split_on_char ';' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        match String.index_opt p ':' with
        | None -> Error (Printf.sprintf "bad bucket entry %S" p)
        | Some i -> (
          let a = String.sub p 0 i in
          let b = String.sub p (i + 1) (String.length p - i - 1) in
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some idx, Some n -> go ((idx, n) :: acc) rest
          | _ -> Error (Printf.sprintf "bad bucket entry %S" p)))
    in
    go [] parts

let to_jsonl t =
  let b = Buffer.create 1024 in
  let line fields =
    Buffer.add_string b (Json.to_string (Json.Obj fields));
    Buffer.add_char b '\n'
  in
  let named kind name rest =
    line (("kind", Json.Str kind) :: ("name", Json.Str name) :: rest)
  in
  line
    [ ("kind", Json.Str "meta"); ("v", Json.int 1);
      ("series_bucket", Json.float t.bucket); ("latency_ppm", Json.int t.lat_ppm) ];
  List.iter
    (fun name -> named "counter" name [ ("n", Json.int (counter t name)) ])
    (counter_names t);
  List.iter
    (fun (s : snapshot) ->
      line
        [ ("kind", Json.Str "snapshot"); ("t", Json.float s.at);
          ("events", Json.int s.events); ("sent", Json.int s.sent);
          ("recvd", Json.int s.recvd); ("dropped", Json.int s.dropped) ])
    (snapshots t);
  List.iter
    (fun name ->
      let h = Hashtbl.find t.hists name in
      named "hist" name
        [ ("zero", Json.int (Sketch.Hist.zero_count h));
          ("buckets", Json.Str (pack (Sketch.Hist.buckets h))) ])
    (hist_names t);
  List.iter
    (fun name ->
      let s = Hashtbl.find t.series name in
      named "series" name
        [ ("bucket", Json.float (Sketch.Series.bucket_width s));
          ("total", Json.int (Sketch.Series.total s));
          ("counts", Json.Str (pack (Sketch.Series.counts s))) ])
    (series_names t);
  Buffer.contents b

let of_jsonl text =
  let t = ref None in
  let get_t () =
    match !t with
    | Some x -> x
    | None ->
      let x = create () in
      t := Some x;
      x
  in
  (* Apply one parsed line to the registry. *)
  let apply fields =
    let get conv name = Option.bind (List.assoc_opt name fields) conv in
    let str = get Json.to_str and num = get Json.to_num in
    let int name = match num name with Some f -> int_of_float f | None -> 0 in
    let named kind f =
      match str "name" with
      | None -> Error (kind ^ " without a name")
      | Some name -> f (get_t ()) name
    in
    match str "kind" with
    | Some "meta" when Option.is_some !t -> Error "duplicate meta line"
    | Some "meta" ->
      let bucket =
        match num "series_bucket" with Some w when w > 0. -> w | _ -> 0.5
      in
      let x = create ~series_bucket:bucket () in
      x.lat_ppm <-
        (match num "latency_ppm" with
         | Some p when p > 0. -> int_of_float p
         | _ -> full_ppm);
      t := Some x;
      Ok ()
    | Some "counter" ->
      named "counter" (fun x name ->
          let n = int "n" and y = x.tally in
          if n < 0 then Error (Printf.sprintf "counter %S is negative (%d)" name n)
          else begin
            (match name with
             | "events" -> y.Flight.t_events <- n
             | "sent" -> y.Flight.t_sent <- n
             | "recvd" -> y.Flight.t_recvd <- n
             | "dropped" -> y.Flight.t_dropped <- n
             | "retransmit" -> y.Flight.t_retransmit <- n
             | "timer" -> y.Flight.t_timer <- n
             | "latency_pending" -> x.pending_carry <- n
             | name -> Metrics.add x.extras name n);
            Ok ()
          end)
    | Some "snapshot" ->
      let x = get_t () in
      let s =
        {
          at = Option.value ~default:0. (num "t");
          events = int "events";
          sent = int "sent";
          recvd = int "recvd";
          dropped = int "dropped";
        }
      in
      x.snaps <- s :: x.snaps;
      Ok ()
    | Some "hist" ->
      named "hist" (fun x name ->
          Result.map
            (fun bs ->
              Sketch.Hist.merge_into ~into:(hist_for x name)
                (Sketch.Hist.of_buckets ~zero:(int "zero") bs))
            (unpack (Option.value ~default:"" (str "buckets"))))
    | Some "series" ->
      named "series" (fun x name ->
          let bucket =
            match num "bucket" with Some w when w > 0. -> w | _ -> x.bucket
          in
          if bucket <> x.bucket then
            Error
              (Printf.sprintf "series bucket %g differs from registry %g" bucket
                 x.bucket)
          else
            Result.map
              (fun cs ->
                Sketch.Series.merge_into ~into:(series_for x name)
                  (Sketch.Series.of_counts ~bucket cs))
              (unpack (Option.value ~default:"" (str "counts"))))
    | Some k -> Error (Printf.sprintf "unknown line kind %S" k)
    | None -> Error "line without a \"kind\" field"
  in
  let rec go lineno = function
    | [] -> Ok (get_t ())
    | line :: rest when String.trim line = "" -> go (lineno + 1) rest
    | line :: rest -> (
      match Result.bind (Json.parse_line line) apply with
      | Ok () -> go (lineno + 1) rest
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 (String.split_on_char '\n' text)

let load_jsonl path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match of_jsonl text with
    | Ok t -> Ok t
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
