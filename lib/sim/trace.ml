module Flight = Rina_util.Flight
module Telemetry = Rina_util.Telemetry

type t = {
  engine : Engine.t;
  buf : Flight.Buf.t;
  mutable attached : bool;
  mutable stream : out_channel option;
  mutable telemetry : Telemetry.t option;
}

let create ?ring_capacity engine =
  {
    engine;
    buf = Flight.Buf.create ?capacity:ring_capacity ();
    attached = false;
    stream = None;
    telemetry = None;
  }

let typed_events t = Flight.Buf.to_list t.buf

let length t = Flight.Buf.length t.buf

(* ---------- flight-recorder attachment ---------- *)

let attach ?(sample_rate = 1.) ?telemetry ?stream t =
  (* validate before touching any state: a rejected attach must leave
     the stream file, [t] and the engine's recorder as they were *)
  let ppm = Flight.ppm_of_rate sample_rate in
  let r = Engine.flight t.engine in
  t.attached <- true;
  (match stream with
   | Some path ->
     (match t.stream with Some oc -> Out_channel.close oc | None -> ());
     t.stream <- Some (Out_channel.open_text path)
   | None -> ());
  t.telemetry <- telemetry;
  (match telemetry with
   | Some tele ->
     Telemetry.set_latency_ppm tele ppm;
     Telemetry.install tele r
   | None -> Telemetry.uninstall r);
  (match t.stream with
   | Some oc ->
     Flight.set_sink r (fun e ->
         Out_channel.output_string oc (Flight.event_to_json e);
         Out_channel.output_char oc '\n')
   | None -> Flight.set_sink r (fun e -> Flight.Buf.add t.buf e));
  Flight.set_sample_rate r sample_rate;
  Flight.set_enabled r true;
  (* a sampled trace carries its own rate so analysis can scale counts:
     the marker is a Custom event, which sampling always keeps *)
  if Flight.sample_ppm r < 1_000_000 then
    Flight.emit_to r ~component:"trace" ~size:(Flight.sample_ppm r)
      (Flight.Custom "meta:sample_ppm")

let close t =
  (match t.stream with
   | Some oc ->
     Out_channel.close oc;
     t.stream <- None
   | None -> ());
  if t.attached then begin
    t.attached <- false;
    let r = Engine.flight t.engine in
    Flight.set_enabled r false;
    Flight.set_sink r ignore;
    Telemetry.uninstall r;
    Flight.set_sample_rate r 1.
  end

let is_attached t = t.attached && Flight.on (Engine.flight t.engine)

(* ---------- periodic snapshots ---------- *)

(* Snapshot ticks are periodic and low-rate — exactly the class the
   Timer lane's wheel exists for — so live stats ride the coarse wheel
   instead of churning the heap. *)
let snapshots t ~interval ~until =
  if interval <= 0. then
    invalid_arg "Trace.snapshots: interval must be positive";
  match t.telemetry with
  | None ->
    invalid_arg "Trace.snapshots: attach with ~telemetry before scheduling"
  | Some tele ->
    let r = Engine.flight t.engine and ticks = ref 0 in
    let rec tick () =
      if Flight.on r then begin
        let s = Telemetry.snap tele ~now:(Engine.now t.engine) in
        incr ticks;
        Flight.emit_to r ~component:"trace" ~seq:!ticks ~size:s.Telemetry.events
          (Flight.Custom "snapshot")
      end;
      if Engine.now t.engine +. interval <= until then
        ignore (Engine.schedule ~lane:Engine.Timer t.engine ~delay:interval tick)
    in
    ignore (Engine.schedule ~lane:Engine.Timer t.engine ~delay:interval tick)

(* ---------- periodic probes ---------- *)

let probe t ~name ~period ~until sample =
  if period <= 0. then invalid_arg "Trace.probe: period must be positive";
  let r = Engine.flight t.engine in
  let rec tick () =
    if Flight.on r then
      Flight.emit_to r ~component:name ~size:(sample ()) (Flight.Custom "probe");
    if Engine.now t.engine +. period <= until then
      ignore (Engine.schedule t.engine ~delay:period tick)
  in
  ignore (Engine.schedule t.engine ~delay:period tick)

(* ---------- JSONL sink ---------- *)

let save_jsonl t path =
  Out_channel.with_open_text path (fun oc ->
      Flight.Buf.iter
        (fun e ->
          Out_channel.output_string oc (Flight.event_to_json e);
          Out_channel.output_char oc '\n')
        t.buf)

(* Streamed line-by-line: peak memory is one line plus the caller's
   accumulator, never the whole file — load never re-buffers what the
   streaming sink deliberately spilled to disk. *)
let fold_jsonl path ~init ~f =
  match In_channel.open_text path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> In_channel.close ic)
      (fun () ->
        let rec go lineno acc =
          match In_channel.input_line ic with
          | None -> Ok acc
          | Some line ->
            if String.trim line = "" then go (lineno + 1) acc
            else (
              match Flight.event_of_json line with
              | Ok e -> go (lineno + 1) (f acc e)
              | Error msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg))
        in
        go 1 init)

let load_jsonl path =
  match fold_jsonl path ~init:[] ~f:(fun acc e -> e :: acc) with
  | Ok acc -> Ok (List.rev acc)
  | Error _ as e -> e
