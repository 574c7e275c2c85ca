(* Spans recorded by the benchmark around its calls into each layer.

   Every span is a synchronous call wrapper, so open spans form a stack
   on the one domain the benchmark runs on.  Each closed span adds its
   duration and its self time (duration minus the union of its
   children's intervals) to a per-kind aggregate; the per-layer metrics
   are read from those aggregates.  The first [capacity] spans of the
   measured phase, plus every root span, are also kept in flat arrays
   and written out as JSONL when the run ends. *)

type kind =
  | Engine_run
  | App_send
  | Link_tx
  | Ipcp_rx_local
  | Ipcp_rx_relay
  | App_rx
  | Mgmt_alloc
  | Mgmt_close
  | Setup_converge
  | Setup_flows

let all_kinds =
  [| Engine_run; App_send; Link_tx; Ipcp_rx_local; Ipcp_rx_relay; App_rx;
     Mgmt_alloc; Mgmt_close; Setup_converge; Setup_flows |]

let index = function
  | Engine_run -> 0
  | App_send -> 1
  | Link_tx -> 2
  | Ipcp_rx_local -> 3
  | Ipcp_rx_relay -> 4
  | App_rx -> 5
  | Mgmt_alloc -> 6
  | Mgmt_close -> 7
  | Setup_converge -> 8
  | Setup_flows -> 9

let name = function
  | Engine_run -> "engine.run"
  | App_send -> "app.send"
  | Link_tx -> "link.tx"
  | Ipcp_rx_local | Ipcp_rx_relay -> "ipcp.rx"
  | App_rx -> "app.rx"
  | Mgmt_alloc -> "mgmt.alloc"
  | Mgmt_close -> "mgmt.close"
  | Setup_converge -> "setup.converge"
  | Setup_flows -> "setup.flows"

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Total length covered by a set of [start, stop) intervals, overlaps
   counted once. *)
let union_length intervals =
  let rec go acc s e = function
    | [] -> acc + (e - s)
    | (s', e') :: rest ->
      if s' > e then go (acc + (e - s)) s' e' rest else go acc s (max e e') rest
  in
  match List.sort compare intervals with
  | [] -> 0
  | (s, e) :: rest -> go 0 s e rest

let self_time ~start ~stop children =
  let inside =
    List.filter_map
      (fun (s, e) ->
        let s = max s start and e = min e stop in
        if e > s then Some (s, e) else None)
      children
  in
  stop - start - union_length inside

type agg = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

type frame = {
  f_kind : kind;
  f_seq : int;
  f_id : int;
  f_start : int;
  mutable f_children : (int * int) list;
}

let capacity = 32_768

type t = {
  aggs : agg array;
  mutable stack : frame list;
  mutable next_seq : int;
  mutable recording : bool;
  mutable kept : int;
  mutable dropped : int;
  r_kind : kind array;
  r_seq : int array;
  r_parent : int array;
  r_id : int array;
  r_start : int array;
  r_stop : int array;
  mutable alloc_calls_us : float list;
  mutable close_calls_us : float list;
}

let create () =
  {
    aggs = Array.map (fun _ -> { count = 0; total_ns = 0; self_ns = 0 }) all_kinds;
    stack = [];
    next_seq = 0;
    recording = false;
    kept = 0;
    dropped = 0;
    r_kind = Array.make capacity Engine_run;
    r_seq = Array.make capacity 0;
    r_parent = Array.make capacity 0;
    r_id = Array.make capacity 0;
    r_start = Array.make capacity 0;
    r_stop = Array.make capacity 0;
    alloc_calls_us = [];
    close_calls_us = [];
  }

(* Keep non-root spans from here on (root spans are always kept). *)
let start_recording t = t.recording <- true

let agg t kind = t.aggs.(index kind)

let enter t kind ~id =
  let f_seq = t.next_seq in
  t.next_seq <- f_seq + 1;
  t.stack <-
    { f_kind = kind; f_seq; f_id = id; f_start = now_ns (); f_children = [] } :: t.stack

let leave t =
  let stop = now_ns () in
  match t.stack with
  | [] -> invalid_arg "Spans.leave: no open span"
  | f :: rest ->
    t.stack <- rest;
    let a = agg t f.f_kind in
    a.count <- a.count + 1;
    a.total_ns <- a.total_ns + (stop - f.f_start);
    a.self_ns <- a.self_ns + self_time ~start:f.f_start ~stop f.f_children;
    let parent =
      match rest with
      | p :: _ ->
        p.f_children <- (f.f_start, stop) :: p.f_children;
        p.f_seq
      | [] -> -1
    in
    let us = float_of_int (stop - f.f_start) /. 1e3 in
    (match f.f_kind with
     | Mgmt_alloc -> t.alloc_calls_us <- us :: t.alloc_calls_us
     | Mgmt_close -> t.close_calls_us <- us :: t.close_calls_us
     | _ -> ());
    if t.recording || parent < 0 then
      if t.kept < capacity then begin
        let i = t.kept in
        t.r_kind.(i) <- f.f_kind;
        t.r_seq.(i) <- f.f_seq;
        t.r_parent.(i) <- parent;
        t.r_id.(i) <- f.f_id;
        t.r_start.(i) <- f.f_start;
        t.r_stop.(i) <- stop;
        t.kept <- i + 1
      end
      else t.dropped <- t.dropped + 1

let span t kind ?(id = 0) f =
  enter t kind ~id;
  match f () with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e

(* [span] when tracing, a plain call otherwise. *)
let opt sp kind f = match sp with None -> f () | Some t -> span t kind f

(* One JSON object per kept span.  [seq] is unique within a round,
   [parent] is the enclosing span's [seq] (-1 for a root), and [id] is
   the PDU trace id ([Pdu.Peek.span]) on link and port spans of DTP
   frames, so the hops of one PDU join; 0 elsewhere. *)
let write_jsonl t oc ~workload =
  for i = 0 to t.kept - 1 do
    let kind = t.r_kind.(i) in
    Printf.fprintf oc
      "{\"workload\": %S, \"name\": %S, \"seq\": %d, \"parent\": %d, \"id\": %d, \
       \"relay\": %b, \"start_ns\": %d, \"end_ns\": %d}\n"
      workload (name kind) t.r_seq.(i) t.r_parent.(i) t.r_id.(i)
      (kind = Ipcp_rx_relay) t.r_start.(i) t.r_stop.(i)
  done
