(* Unit tests for the discrete-event simulator. *)

module Engine = Rina_sim.Engine
module Loss = Rina_sim.Loss
module Chan = Rina_sim.Chan
module Link = Rina_sim.Link
module Medium = Rina_sim.Medium
module Trace = Rina_sim.Trace
module Prng = Rina_util.Prng
module Flight = Rina_util.Flight
module Trace_report = Rina_check.Trace_report
module Fault = Rina_sim.Fault
module Mangle = Rina_sim.Mangle
module Sanitizer = Rina_check.Sanitizer
module Dif = Rina_core.Dif
module Ipcp = Rina_core.Ipcp
module Types = Rina_core.Types

let check = Alcotest.check

(* ---------- Engine ---------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:3. (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:1. (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:2. (fun () -> log := 2 :: !log));
  Engine.run e;
  check Alcotest.(list int) "timestamp order" [ 1; 2; 3 ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last event" 3. (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:1. (fun () -> log := i :: !log))
  done;
  Engine.run e;
  check Alcotest.(list int) "fifo among equals" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1. (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:1. (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:5. (fun () -> incr fired));
  Engine.run ~until:2. e;
  check Alcotest.int "only first" 1 !fired;
  check (Alcotest.float 1e-9) "clock at until" 2. (Engine.now e);
  Engine.run ~until:10. e;
  check Alcotest.int "second later" 2 !fired

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~delay:(-5.) (fun () -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "fired" true !fired;
  check (Alcotest.float 1e-9) "no time travel" 0. (Engine.now e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1. (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:1. (fun () -> log := "inner" :: !log))));
  Engine.run e;
  check Alcotest.(list string) "nested" [ "outer"; "inner" ] (List.rev !log);
  check (Alcotest.float 1e-9) "time 2" 2. (Engine.now e)

(* Events each capturing its own 1400 B buffer, afterwards none of
   which the engine may keep reachable.  Fired: 64 run to completion; a
   vacated heap or wheel slot that still pointed at a fired handle would
   keep its closure, and the buffer, alive.  Cancelled: 40 at least 1 s
   ahead are cancelled while one live event stays pending, too few to be
   reaped, so their entries are still queued; a cancelled handle that
   kept its closure would keep the buffer alive. *)
let[@inline never] schedule_holding e lane weak i ~delay =
  let buf = Bytes.make 1400 'x' in
  Weak.set weak i (Some buf);
  Engine.schedule ~lane e ~delay (fun () -> ignore (Sys.opaque_identity buf))

let buffers_kept lane ~cancelled =
  let e = Engine.create () in
  let n = if cancelled then 40 else 64 in
  let weak = Weak.create n in
  let start = if cancelled then 1. else 0. in
  let handles =
    List.init n (fun i ->
        schedule_holding e lane weak i ~delay:(start +. (0.01 *. float_of_int (i + 1))))
  in
  if cancelled then begin
    ignore (Engine.schedule ~lane e ~delay:5. ignore);
    List.iter Engine.cancel handles
  end
  else Engine.run e;
  Gc.full_major ();
  Gc.full_major ();
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr kept
  done;
  if cancelled then
    check Alcotest.int "cancelled still queued" 41 (Engine.pending (Sys.opaque_identity e))
  else check Alcotest.int "all fired" 64 (Engine.executed (Sys.opaque_identity e));
  !kept

let test_engine_drops_fired_events () =
  check Alcotest.int "heap lane keeps no fired event" 0
    (buffers_kept Engine.Default ~cancelled:false);
  check Alcotest.int "timer lane keeps no fired event" 0
    (buffers_kept Engine.Timer ~cancelled:false);
  check Alcotest.int "heap lane keeps no cancelled closure" 0
    (buffers_kept Engine.Default ~cancelled:true);
  check Alcotest.int "timer lane keeps no cancelled closure" 0
    (buffers_kept Engine.Timer ~cancelled:true)

(* The wheel parks entries by 50 ms slot but flushes a slot before any
   calendar event at or after the slot's start, and every entry keeps
   its exact time: a Timer-lane tick re-armed every 10 ms fires at each
   10 ms, not once per slot. *)
let test_engine_timer_finer_than_slot () =
  let e = Engine.create () in
  let fired = ref [] in
  let rec tick () =
    fired := Engine.now e :: !fired;
    ignore (Engine.schedule ~lane:Engine.Timer e ~delay:0.01 tick)
  in
  ignore (Engine.schedule ~lane:Engine.Timer e ~delay:0.01 tick);
  Engine.run ~until:0.205 e;
  check
    Alcotest.(list (float 1e-9))
    "a tick every 10 ms"
    (List.init 20 (fun i -> 0.01 *. float_of_int (i + 1)))
    (List.rev !fired)

let test_engine_step () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1. (fun () -> ()));
  Alcotest.(check bool) "step true" true (Engine.step e);
  Alcotest.(check bool) "step false when drained" false (Engine.step e)

(* A NaN delay used to enter the queue, where it compares false against
   every time.  Scheduled just after the event at 1 s, it made these
   fire at 1, 3, 2 and 4 s, the clock stepping back from 3 to 2, and it
   never fired itself; scheduled first, no event fired at all.  It is
   rejected now; infinity stays legal and fires only when [run]
   drains. *)
let test_engine_rejects_nan () =
  let e = Engine.create () in
  let log = ref [] in
  let at x () = log := (x, Engine.now e) :: !log in
  ignore (Engine.schedule e ~delay:1. (at 1.));
  Alcotest.check_raises "NaN delay" (Invalid_argument "Engine.schedule: NaN delay")
    (fun () -> ignore (Engine.schedule e ~delay:Float.nan ignore));
  ignore (Engine.schedule e ~delay:2. (at 2.));
  ignore
    (Engine.schedule e ~delay:3. (fun () ->
         at 3. ();
         ignore (Engine.schedule e ~delay:1. (at 4.))));
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule_at: NaN time")
    (fun () -> ignore (Engine.schedule_at ~lane:Engine.Timer e ~time:Float.nan ignore));
  Alcotest.check_raises "NaN until" (Invalid_argument "Engine.run: NaN until")
    (fun () -> Engine.run ~until:Float.nan e);
  ignore (Engine.schedule ~lane:Engine.Timer e ~delay:infinity (at infinity));
  Engine.run ~until:10. e;
  let pair = Alcotest.(pair (float 0.) (float 0.)) in
  check (Alcotest.list pair) "in time order" [ (1., 1.); (2., 2.); (3., 3.); (4., 4.) ]
    (List.rev !log);
  check Alcotest.int "infinity still pending" 1 (Engine.pending e);
  check (Alcotest.float 0.) "clock at until" 10. (Engine.now e);
  Engine.run e;
  check (Alcotest.list pair) "infinity fires on drain" [ (infinity, infinity) ]
    [ List.hd !log ];
  check Alcotest.int "drained" 0 (Engine.pending e)

(* ---------- Engine against a heap reference ---------- *)

(* The event set before the calendar queue, kept as an oracle: a
   [Rina_util.Heap] keyed by (time, seq), with the same Timer-lane
   wheel, flush protocol and bulk reap.  The calendar must fire events
   in the same order, and agree on [executed] and [pending], which count
   what the wheel and the reaps let through. *)
module Heap_engine = struct
  type handle = {
    mutable cancelled : bool;
    mutable resident : bool;
    mutable action : unit -> unit;
    owner : t option;
  }

  and t = {
    mutable clock : float;
    queue : handle Rina_util.Heap.t;
    mutable executed : int;
    mutable cancelled_resident : int;
    wheel : (float * int * handle) list array;  (* (time, reserved seq, handle) *)
    mutable wheel_count : int;
    mutable wheel_min_slot : int;
    self : t option;
  }

  let vacant = { cancelled = true; resident = false; action = ignore; owner = None }
  let slots = 256
  let slot_of time = int_of_float (time /. Engine.wheel_granularity)

  let create () =
    let rec t =
      {
        clock = 0.;
        queue = Rina_util.Heap.create ~filler:vacant;
        executed = 0;
        cancelled_resident = 0;
        wheel = Array.make slots [];
        wheel_count = 0;
        wheel_min_slot = 0;
        self;
      }
    and self = Some t in
    t

  let now t = t.clock
  let executed t = t.executed
  let pending t = Rina_util.Heap.length t.queue + t.wheel_count

  let schedule_at ~timer t ~time f =
    let time = if time < t.clock then t.clock else time in
    let h = { cancelled = false; resident = true; action = f; owner = t.self } in
    if
      timer && time > t.clock
      && time /. Engine.wheel_granularity < float_of_int (slot_of t.clock + slots)
    then begin
      let s = slot_of time in
      let i = s land (slots - 1) in
      t.wheel.(i) <- (time, Rina_util.Heap.reserve_seq t.queue, h) :: t.wheel.(i);
      if t.wheel_count = 0 || s < t.wheel_min_slot then t.wheel_min_slot <- s;
      t.wheel_count <- t.wheel_count + 1
    end
    else Rina_util.Heap.push t.queue time h;
    h

  let schedule ~timer t ~delay f =
    schedule_at ~timer t ~time:(t.clock +. Float.max delay 0.) f

  let reap t =
    ignore
      (Rina_util.Heap.compact t.queue ~keep:(fun h ->
           if h.cancelled then h.resident <- false;
           not h.cancelled));
    Array.iteri
      (fun i slot ->
        t.wheel.(i) <-
          List.filter
            (fun (_, _, h) ->
              if h.cancelled then begin
                h.resident <- false;
                t.wheel_count <- t.wheel_count - 1
              end;
              not h.cancelled)
            slot)
      t.wheel;
    t.cancelled_resident <- 0

  let cancel h =
    h.action <- ignore;
    match h.owner with
    | Some t when h.resident && not h.cancelled ->
      h.cancelled <- true;
      t.cancelled_resident <- t.cancelled_resident + 1;
      if t.cancelled_resident >= 64 && 2 * t.cancelled_resident > pending t then reap t
    | Some _ | None -> h.cancelled <- true

  let flush_slot t s =
    let i = s land (slots - 1) in
    List.iter
      (fun (time, seq, h) ->
        t.wheel_count <- t.wheel_count - 1;
        if h.cancelled then begin
          h.resident <- false;
          t.cancelled_resident <- t.cancelled_resident - 1
        end
        else Rina_util.Heap.push_with_seq t.queue ~key:time ~seq h)
      t.wheel.(i);
    t.wheel.(i) <- []

  let first_nonempty_slot t =
    while t.wheel.(t.wheel_min_slot land (slots - 1)) = [] do
      t.wheel_min_slot <- t.wheel_min_slot + 1
    done;
    t.wheel_min_slot

  let rec flush_until t ~due =
    if t.wheel_count > 0 then begin
      let s = first_nonempty_slot t in
      if due (float_of_int s *. Engine.wheel_granularity) then begin
        flush_slot t s;
        flush_until t ~due
      end
    end

  let step t =
    flush_until t ~due:(fun start ->
        Rina_util.Heap.is_empty t.queue || start <= Rina_util.Heap.top_key t.queue);
    match Rina_util.Heap.pop t.queue with
    | None -> false
    | Some (time, h) ->
      t.clock <- time;
      t.executed <- t.executed + 1;
      h.resident <- false;
      if h.cancelled then t.cancelled_resident <- t.cancelled_resident - 1 else h.action ();
      true

  let run ?until t =
    match until with
    | None -> while step t do () done
    | Some stop ->
      let continue = ref true in
      while !continue do
        flush_until t ~due:(fun start -> start <= stop);
        match Rina_util.Heap.peek t.queue with
        | Some (time, _) when time <= stop -> ignore (step t)
        | Some _ | None ->
          t.clock <- Float.max t.clock stop;
          continue := false
      done
end

module type EVENT_SET = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> float
  val executed : t -> int
  val pending : t -> int
  val schedule : timer:bool -> t -> delay:float -> (unit -> unit) -> handle
  val schedule_at : timer:bool -> t -> time:float -> (unit -> unit) -> handle
  val cancel : handle -> unit
  val step : t -> bool
  val run : ?until:float -> t -> unit
end

module Calendar_engine : EVENT_SET = struct
  include Engine

  let lane timer = if timer then Engine.Timer else Engine.Default
  let schedule ~timer t ~delay f = Engine.schedule ~lane:(lane timer) t ~delay f
  let schedule_at ~timer t ~time f = Engine.schedule_at ~lane:(lane timer) t ~time f
end

type engine_op =
  | Sched of { timer : bool; delay : float; chain : int }
  | Sched_at of { timer : bool; time : float }
  | Cancel of int
  | Step
  | Run_until of float  (* a gap past the clock *)
  | Drain

(* Delays mix equal values, zero and negative ones, the link and timer
   scales, times far past any bucket horizon, and infinity. *)
let random_delay rng =
  match Prng.int rng 12 with
  | 0 -> 0.
  | 1 -> -.Prng.float rng 1.
  | 2 -> 1e-6
  | 3 -> Prng.float rng 1e-4
  | 4 -> 0.001
  | 5 -> Prng.float rng 0.01
  | 6 -> Prng.float rng 2.
  | 7 -> 0.05 *. float_of_int (Prng.int rng 300)
  | 8 -> Prng.float rng 50.
  | 9 -> 1e3 +. Prng.float rng 1e6
  | 10 -> infinity
  | _ -> 0.25

let random_program rng ~ops =
  List.init ops (fun _ ->
      match Prng.int rng 16 with
      | 0 | 1 | 2 | 3 | 4 ->
        Sched { timer = Prng.bool rng; delay = random_delay rng; chain = Prng.int rng 4 }
      | 5 | 6 ->
        (* a grid of absolute times, so that many events share one *)
        Sched_at { timer = Prng.bool rng; time = 0.125 *. float_of_int (Prng.int rng 200) }
      | 7 | 8 | 9 -> Cancel (Prng.int rng 1_000_000)
      | 10 | 11 -> Step
      | 12 | 13 | 14 ->
        (* short gaps stop between the next event and the one the queue
           peeked at, and later schedules land behind it *)
        Run_until (if Prng.bool rng then Prng.float rng 0.002 else Prng.float rng 5.)
      | _ -> if Prng.int rng 8 = 0 then Drain else Step)

(* Every firing as (label, clock), and (clock, executed, pending) after
   every operation. *)
module Interpret (E : EVENT_SET) = struct
  let run program =
    let e = E.create () in
    let out = Buffer.create 4096 in
    let handles = ref [||] and count = ref 0 and label = ref 0 in
    let remember h =
      if !count = Array.length !handles then
        handles := Array.append !handles (Array.make (max 16 !count) h);
      !handles.(!count) <- h;
      incr count
    in
    let rec event ~timer ~delay ~chain () =
      let l = !label in
      incr label;
      fun () ->
        Printf.bprintf out "fire %d %h\n" l (E.now e);
        if chain > 0 then
          remember (E.schedule ~timer e ~delay (event ~timer ~delay ~chain:(chain - 1) ()))
    in
    List.iter
      (fun op ->
        (match op with
        | Sched { timer; delay; chain } ->
          remember (E.schedule ~timer e ~delay (event ~timer ~delay ~chain ()))
        | Sched_at { timer; time } ->
          remember (E.schedule_at ~timer e ~time (event ~timer ~delay:0.5 ~chain:0 ()))
        | Cancel i -> if !count > 0 then E.cancel !handles.(i mod !count)
        | Step -> ignore (E.step e)
        | Run_until gap -> E.run ~until:(E.now e +. gap) e
        | Drain -> E.run e);
        Printf.bprintf out "now %h executed %d pending %d\n" (E.now e) (E.executed e)
          (E.pending e))
      program;
    Buffer.contents out
end

module Run_calendar = Interpret (Calendar_engine)
module Run_heap = Interpret (Heap_engine)

let prop_engine_matches_heap_reference =
  QCheck.Test.make ~name:"engine fires as a heap reference does" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let program = random_program (Prng.create seed) ~ops:300 in
      Run_calendar.run program = Run_heap.run program)

(* 10k events at once, so the buckets grow, then cancels, a partial run
   and a drain, so they shrink again. *)
let test_engine_burst_matches_heap_reference () =
  let rng = Prng.create 11 in
  let burst =
    List.init 10_000 (fun _ ->
        Sched { timer = Prng.bernoulli rng 0.3; delay = random_delay rng; chain = Prng.int rng 2 })
  in
  let program =
    burst
    @ List.init 3_000 (fun _ -> Cancel (Prng.int rng 1_000_000))
    @ [ Run_until 3.; Step; Run_until 0.001 ]
    @ random_program rng ~ops:200
    @ [ Drain ]
  in
  let calendar = Run_calendar.run program in
  check Alcotest.string "same firings and counts" (Run_heap.run program) calendar;
  check Alcotest.bool "drained" true
    (String.ends_with ~suffix:"pending 0\n" calendar)

(* ---------- Loss ---------- *)

let test_loss_none_and_extremes () =
  let rng = Prng.create 3 in
  let s = Loss.make_state Loss.No_loss in
  for _ = 1 to 100 do
    Alcotest.(check bool) "no_loss" false (Loss.drops s rng)
  done;
  let s1 = Loss.make_state (Loss.Bernoulli 1.0) in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 drops" true (Loss.drops s1 rng)
  done;
  let s0 = Loss.make_state (Loss.Bernoulli 0.0) in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 keeps" false (Loss.drops s0 rng)
  done

let test_loss_bernoulli_rate () =
  let rng = Prng.create 5 in
  let s = Loss.make_state (Loss.Bernoulli 0.3) in
  let drops = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Loss.drops s rng then incr drops
  done;
  let rate = float_of_int !drops /. float_of_int n in
  Alcotest.(check bool) "~30%" true (Float.abs (rate -. 0.3) < 0.02)

let test_loss_gilbert_elliott_average () =
  let rng = Prng.create 7 in
  let spec =
    Loss.Gilbert_elliott
      { p_good_to_bad = 0.1; p_bad_to_good = 0.3; loss_good = 0.0; loss_bad = 0.5 }
  in
  let s = Loss.make_state spec in
  let drops = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Loss.drops s rng then incr drops
  done;
  (* Stationary P(bad) = 0.1/(0.1+0.3) = 0.25; mean loss = 0.125. *)
  let rate = float_of_int !drops /. float_of_int n in
  Alcotest.(check bool) "~12.5%" true (Float.abs (rate -. 0.125) < 0.01)

(* ---------- Chan ---------- *)

let test_chan_pair () =
  let a, b = Chan.pair () in
  let got_b = ref [] and got_a = ref [] in
  b.Chan.set_receiver (fun f -> got_b := Bytes.to_string f :: !got_b);
  a.Chan.set_receiver (fun f -> got_a := Bytes.to_string f :: !got_a);
  a.Chan.send (Bytes.of_string "ping");
  b.Chan.send (Bytes.of_string "pong");
  check Alcotest.(list string) "b received" [ "ping" ] !got_b;
  check Alcotest.(list string) "a received" [ "pong" ] !got_a

(* ---------- Link ---------- *)

let mk_link ?queue_capacity ?loss () =
  let e = Engine.create () in
  let rng = Prng.create 1 in
  let l =
    Link.create e rng ~bit_rate:1_000_000. ~delay:0.01 ?queue_capacity ?loss ()
  in
  (e, l)

let test_link_latency () =
  let e, l = mk_link () in
  let arrival = ref None in
  (Link.endpoint_b l).Chan.set_receiver (fun _ -> arrival := Some (Engine.now e));
  (* 1000 bytes at 1 Mb/s = 8 ms serialisation + 10 ms propagation. *)
  (Link.endpoint_a l).Chan.send (Bytes.create 1000);
  Engine.run e;
  match !arrival with
  | Some t -> check (Alcotest.float 1e-9) "latency" 0.018 t
  | None -> Alcotest.fail "frame lost"

let test_link_serialization_spacing () =
  let e, l = mk_link () in
  let times = ref [] in
  (Link.endpoint_b l).Chan.set_receiver (fun _ -> times := Engine.now e :: !times);
  (Link.endpoint_a l).Chan.send (Bytes.create 1000);
  (Link.endpoint_a l).Chan.send (Bytes.create 1000);
  Engine.run e;
  match List.rev !times with
  | [ t1; t2 ] -> check (Alcotest.float 1e-9) "8ms apart" 0.008 (t2 -. t1)
  | _ -> Alcotest.fail "expected 2 frames"

let test_link_queue_overflow () =
  let e, l = mk_link ~queue_capacity:4 () in
  let received = ref 0 in
  (Link.endpoint_b l).Chan.set_receiver (fun _ -> incr received);
  for _ = 1 to 10 do
    (Link.endpoint_a l).Chan.send (Bytes.create 100)
  done;
  Engine.run e;
  check Alcotest.int "only queue_capacity delivered" 4 !received;
  check Alcotest.int "drops counted" 6
    (Rina_util.Metrics.get (Link.stats_a l) "dropped_queue")

let test_link_down_drops_and_notifies () =
  let e, l = mk_link () in
  let received = ref 0 and carrier = ref [] in
  (Link.endpoint_b l).Chan.set_receiver (fun _ -> incr received);
  (Link.endpoint_a l).Chan.on_carrier (fun up -> carrier := up :: !carrier);
  (Link.endpoint_a l).Chan.send (Bytes.create 100);
  Link.set_up l false;
  Engine.run e;
  check Alcotest.int "in-flight dropped" 0 !received;
  (Link.endpoint_a l).Chan.send (Bytes.create 100);
  Engine.run e;
  check Alcotest.int "down drops" 0 !received;
  Link.set_up l true;
  (Link.endpoint_a l).Chan.send (Bytes.create 100);
  Engine.run e;
  check Alcotest.int "up again" 1 !received;
  check Alcotest.(list bool) "watcher saw down then up" [ false; true ] (List.rev !carrier)

let test_link_blackhole_silent () =
  let e, l = mk_link () in
  let received = ref 0 and carrier_events = ref 0 in
  (Link.endpoint_b l).Chan.set_receiver (fun _ -> incr received);
  (Link.endpoint_a l).Chan.on_carrier (fun _ -> incr carrier_events);
  Link.set_blackhole l true;
  (Link.endpoint_a l).Chan.send (Bytes.create 100);
  Engine.run e;
  check Alcotest.int "swallowed" 0 !received;
  check Alcotest.int "no carrier event" 0 !carrier_events;
  Alcotest.(check bool) "is_up still true" true ((Link.endpoint_a l).Chan.is_up ());
  Link.set_blackhole l false;
  (Link.endpoint_a l).Chan.send (Bytes.create 100);
  Engine.run e;
  check Alcotest.int "healed" 1 !received

let test_link_loss () =
  let e = Engine.create () in
  let rng = Prng.create 1 in
  let l =
    Link.create e rng ~bit_rate:1_000_000_000. ~delay:0.0001 ~queue_capacity:4096
      ~loss:(Loss.Bernoulli 0.5) ()
  in
  let received = ref 0 in
  (Link.endpoint_b l).Chan.set_receiver (fun _ -> incr received);
  for _ = 1 to 2000 do
    (Link.endpoint_a l).Chan.send (Bytes.create 10)
  done;
  Engine.run e;
  Alcotest.(check bool) "~half arrive" true
    (!received > 800 && !received < 1200)

let test_link_directions_independent () =
  let e, l = mk_link () in
  let at_a = ref 0 and at_b = ref 0 in
  (Link.endpoint_a l).Chan.set_receiver (fun _ -> incr at_a);
  (Link.endpoint_b l).Chan.set_receiver (fun _ -> incr at_b);
  (Link.endpoint_a l).Chan.send (Bytes.create 10);
  (Link.endpoint_b l).Chan.send (Bytes.create 10);
  (Link.endpoint_b l).Chan.send (Bytes.create 10);
  Engine.run e;
  check Alcotest.int "a got 2" 2 !at_a;
  check Alcotest.int "b got 1" 1 !at_b

(* ---------- Medium ---------- *)

let medium_range_and_movement e =
  let rng = Prng.create 2 in
  let m = Medium.create e rng ~bit_rate:10_000_000. ~base_delay:0.001 in
  let bs = Medium.add_node m ~x:0. ~y:0. in
  let mob = Medium.add_node m ~x:50. ~y:0. in
  check (Alcotest.float 1e-9) "distance" 50. (Medium.distance bs mob);
  let down = Medium.channel m ~local:bs ~remote:mob ~range:100. ~edge_loss:0. () in
  let up = Medium.channel m ~local:mob ~remote:bs ~range:100. ~edge_loss:0. () in
  let got = ref 0 and carrier = ref [] in
  up.Chan.set_receiver (fun _ -> ());
  down.Chan.set_receiver (fun _ -> ());
  (* Receiving side of bs->mob transmissions is the mobile's channel. *)
  up.Chan.set_receiver (fun _ -> incr got);
  down.Chan.on_carrier (fun u -> carrier := u :: !carrier);
  Alcotest.(check bool) "in range" true (down.Chan.is_up ());
  down.Chan.send (Bytes.create 100);
  Engine.run e;
  check Alcotest.int "delivered in range" 1 !got;
  (* Move out of range: carrier watcher fires, frames die. *)
  Medium.set_position m mob ~x:500. ~y:0.;
  Alcotest.(check bool) "out of range" false (down.Chan.is_up ());
  check Alcotest.(list bool) "carrier down event" [ false ] !carrier;
  down.Chan.send (Bytes.create 100);
  Engine.run e;
  check Alcotest.int "not delivered" 1 !got;
  (* Come back. *)
  Medium.set_position m mob ~x:10. ~y:0.;
  check Alcotest.(list bool) "carrier up event" [ true; false ] !carrier;
  down.Chan.send (Bytes.create 100);
  Engine.run e;
  check Alcotest.int "delivered again" 2 !got

let test_medium_range_and_movement () = medium_range_and_movement (Engine.create ())

(* Every radio emitter counted exactly, per (component prefix, kind):
   the experiment traces compared byte for byte hold no radio. event,
   so these counts are what pins them. *)
let test_medium_emitters_pinned () =
  let e = Engine.create () in
  let tr = Trace.create e in
  Trace.attach tr;
  medium_range_and_movement e;
  Trace.close tr;
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (ev : Flight.event) ->
      let prefix = String.split_on_char '.' ev.component |> List.hd in
      let key = prefix ^ " " ^ Flight.kind_to_string ev.kind in
      Hashtbl.replace counts key
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    (Trace.typed_events tr);
  check
    Alcotest.(list (pair string int))
    "events per component and kind"
    [
      ("engine timer_fired", 2); ("engine timer_set", 2);
      ("radio pdu_dropped:link_down", 1); ("radio pdu_recvd", 2);
      ("radio pdu_sent", 2);
    ]
    (List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []))

let test_medium_edge_loss_grows () =
  let e = Engine.create () in
  let rng = Prng.create 4 in
  let m = Medium.create e rng ~bit_rate:1_000_000_000. ~base_delay:0.00001 in
  let a = Medium.add_node m ~x:0. ~y:0. in
  let b = Medium.add_node m ~x:95. ~y:0. in
  let tx = Medium.channel m ~local:a ~remote:b ~range:100. ~edge_loss:0.5 () in
  let rx = Medium.channel m ~local:b ~remote:a ~range:100. ~edge_loss:0.5 () in
  let got = ref 0 in
  rx.Chan.set_receiver (fun _ -> incr got);
  for _ = 1 to 2000 do
    tx.Chan.send (Bytes.create 10)
  done;
  Engine.run e;
  (* At 95% of range with edge_loss 0.5 the loss is ~0.45. *)
  let rate = 1. -. (float_of_int !got /. 2000.) in
  Alcotest.(check bool) "edge loss ~45%" true (Float.abs (rate -. 0.45) < 0.05)

(* ---------- Trace ---------- *)

(* Duplicate timestamps must not make the widest-gap answer depend on
   record order: times are sorted and ties resolve to the earliest
   interval. *)
let test_trace_duplicate_gap () =
  (* gaps: 0 (the duplicate), 2 (1->3), 2 (3->5): tie resolves to the
     earliest interval, so start must be 1, not 3 *)
  let mk time =
    { Flight.time; component = "x"; kind = Flight.Pdu_recvd;
      flow = 0; rank = 0; seq = 0; size = 0; span = 0 }
  in
  match Trace_report.delivery_gap [ mk 3.; mk 1.; mk 5.; mk 1. ] with
  | Some (gap, start) ->
    check (Alcotest.float 1e-9) "report gap" 2. gap;
    check (Alcotest.float 1e-9) "report start" 1. start
  | None -> Alcotest.fail "expected a report gap"

(* Attaching turns on typed emission (engine timers included);
   closing stops it while keeping buffered events readable. *)
let test_trace_attach_timer_events () =
  let e = Engine.create () in
  let tr = Trace.create e in
  check Alcotest.bool "off by default" false (Flight.on (Engine.flight e));
  Trace.attach tr;
  check Alcotest.bool "attached" true (Trace.is_attached tr);
  ignore (Engine.schedule e ~delay:1. (fun () -> ()));
  ignore (Engine.schedule e ~delay:2. (fun () -> ()));
  Engine.run e;
  Trace.close tr;
  let is k ev = ev.Flight.kind = k in
  let evs = Trace.typed_events tr in
  check Alcotest.int "timers set" 2 (List.length (List.filter (is Flight.Timer_set) evs));
  check Alcotest.int "timers fired" 2 (List.length (List.filter (is Flight.Timer_fired) evs));
  let n = Trace.length tr in
  ignore (Engine.schedule e ~delay:1. (fun () -> ()));
  Engine.run e;
  check Alcotest.int "silent after close" n (Trace.length tr);
  check Alcotest.bool "closed" false (Trace.is_attached tr)

(* A sample rate outside (0, 1] is rejected before attach touches
   anything: the stream file keeps its bytes, the rejected trace is not
   attached, and the recorder keeps feeding the trace attached before
   (clock, sink and telemetry tap unchanged). *)
let test_trace_attach_rejected_rate () =
  let e = Engine.create () in
  let a = Trace.create e and b = Trace.create e in
  let tele_b = Rina_util.Telemetry.create () in
  let path = Filename.temp_file "rina_trace_keep" ".jsonl" in
  let r = Engine.flight e in
  Fun.protect
    ~finally:(fun () ->
      Trace.close a;
      Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc "precious\n");
      Trace.attach a;
      Flight.emit_to r ~component:"x" (Flight.Custom "before");
      Alcotest.check_raises "rate above 1 rejected"
        (Invalid_argument "Flight.ppm_of_rate: rate must be in (0, 1]")
        (fun () -> Trace.attach ~sample_rate:2.0 ~telemetry:tele_b ~stream:path b);
      Flight.emit_to r ~component:"x" (Flight.Custom "after");
      check Alcotest.string "stream file untouched" "precious\n"
        (In_channel.with_open_text path In_channel.input_all);
      check Alcotest.bool "rejected trace not attached" false (Trace.is_attached b);
      check Alcotest.bool "first trace still attached" true (Trace.is_attached a);
      check Alcotest.int "both events reach the first trace" 2 (Trace.length a);
      check Alcotest.int "none reach the rejected trace" 0 (Trace.length b);
      check Alcotest.int "rejected registry not installed" 0
        (Rina_util.Telemetry.counter tele_b "events"))

let test_trace_probe () =
  let e = Engine.create () in
  let tr = Trace.create e in
  Alcotest.check_raises "period must be positive"
    (Invalid_argument "Trace.probe: period must be positive") (fun () ->
      Trace.probe tr ~name:"q" ~period:0. ~until:5. (fun () -> 0));
  Trace.attach tr;
  let v = ref 0 in
  Trace.probe tr ~name:"q" ~period:1. ~until:5. (fun () ->
      incr v;
      !v * 10);
  Engine.run e;
  Trace.close tr;
  let samples =
    List.filter_map
      (fun ev ->
        if ev.Flight.component = "q" && ev.Flight.kind = Flight.Custom "probe"
        then Some (ev.Flight.time, ev.Flight.size)
        else None)
      (Trace.typed_events tr)
  in
  (* fires at t = 1..5 inclusive, then stops (until reached) *)
  check
    Alcotest.(list (pair (float 1e-9) int))
    "periodic samples"
    [ (1., 10); (2., 20); (3., 30); (4., 40); (5., 50) ]
    samples

(* Link halves emit typed lifecycle events with per-direction
   components and drop reasons. *)
let test_trace_link_drop_reasons () =
  let e = Engine.create () in
  let rng = Prng.create 7 in
  let link =
    Link.create e rng ~bit_rate:8_000. ~delay:0.01 ~queue_capacity:1
      ~label:"lk" ()
  in
  let tr = Trace.create e in
  Trace.attach tr;
  let a = Link.endpoint_a link in
  (Link.endpoint_b link).Chan.set_receiver (fun _ -> ());
  a.Chan.send (Bytes.create 100);
  (* first frame serialises (100 ms at 8 kb/s) *)
  check Alcotest.int "queue depth" 1 (Link.queue_depth_a link);
  a.Chan.send (Bytes.create 100);
  (* capacity 1 -> tail drop *)
  Engine.run e;
  Link.set_up link false;
  a.Chan.send (Bytes.create 100);
  (* carrier down -> drop *)
  Engine.run e;
  Trace.close tr;
  let dropped r ev = ev.Flight.kind = Flight.Pdu_dropped r in
  let evs = List.filter (fun ev -> ev.Flight.component = "lk.ab") (Trace.typed_events tr) in
  check Alcotest.int "queue_full drop" 1
    (List.length (List.filter (dropped Flight.R_queue_full) evs));
  check Alcotest.int "link_down drop" 1
    (List.length (List.filter (dropped Flight.R_link_down) evs));
  check Alcotest.int "sent" 1
    (List.length (List.filter (fun ev -> ev.Flight.kind = Flight.Pdu_sent) evs));
  check Alcotest.int "recvd" 1
    (List.length (List.filter (fun ev -> ev.Flight.kind = Flight.Pdu_recvd) evs));
  match Trace_report.drop_breakdown (Trace.typed_events tr) with
  | [ (r1, 1); (r2, 1) ] ->
    check
      Alcotest.(slist string compare)
      "reasons" [ "link_down"; "queue_full" ] [ r1; r2 ]
  | other ->
    Alcotest.failf "unexpected drop breakdown (%d entries)" (List.length other)

let test_trace_jsonl_roundtrip () =
  let e = Engine.create () in
  let tr = Trace.create e in
  Trace.attach tr;
  let r = Engine.flight e in
  ignore
    (Engine.schedule e ~delay:0.5 (fun () ->
         Flight.emit_to r ~component:"efcp" ~flow:3 ~rank:1 ~seq:7 ~size:500
           ~span:(Flight.span_of ~flow:3 ~seq:7)
           (Flight.Pdu_dropped (Flight.R_other "weird"));
         Flight.emit_to r ~component:"x" (Flight.Custom "tick")));
  Engine.run e;
  Trace.close tr;
  let path = Filename.temp_file "rina_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save_jsonl tr path;
      match Trace.load_jsonl path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok evs ->
        check Alcotest.int "all lines back" (Trace.length tr) (List.length evs);
        check Alcotest.bool "events identical" true (evs = Trace.typed_events tr))

(* A corrupt line in a JSONL trace must fail cleanly (Error, not an
   exception) and name the file and line. *)
let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

let test_trace_load_corrupt () =
  let path = Filename.temp_file "rina_trace_bad" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            "{\"t\":1,\"c\":\"x\",\"k\":\"pdu_sent\"}\n\nnot json at all\n");
      (match Trace.load_jsonl path with
      | Ok _ -> Alcotest.fail "corrupt trace accepted"
      | Error msg ->
        check Alcotest.bool
          (Printf.sprintf "error %S names file:line" msg)
          true
          (has_sub msg (path ^ ":3:")));
      match Trace.fold_jsonl path ~init:0 ~f:(fun n _ -> n + 1) with
      | Ok _ -> Alcotest.fail "fold accepted corrupt trace"
      | Error msg ->
        check Alcotest.bool "fold error names file:line" true
          (has_sub msg (path ^ ":3:")))

(* The snapshot timer rides the engine wheel: with a telemetry registry
   attached, every interval records a Telemetry.snap and emits a
   Custom "snapshot" marker. *)
let test_trace_snapshots () =
  let e = Engine.create () in
  let tr = Trace.create e in
  let tele = Rina_util.Telemetry.create () in
  Trace.attach ~telemetry:tele tr;
  Trace.snapshots tr ~interval:0.5 ~until:2.9;
  ignore
    (Engine.schedule e ~delay:1.05 (fun () ->
         Flight.emit_to (Engine.flight e) ~component:"x" ~flow:1 ~seq:1 ~span:1
           Flight.Pdu_sent));
  Engine.run e;
  Trace.close tr;
  let snaps = Rina_util.Telemetry.snapshots tele in
  check Alcotest.int "one snapshot per interval" 5 (List.length snaps);
  check Alcotest.int "marker events in trace" 5
    (List.length
       (List.filter
          (fun ev -> ev.Flight.kind = Flight.Custom "snapshot")
          (Trace.typed_events tr)));
  (* snapshots are interval deltas: exactly one interval saw the send *)
  check Alcotest.int "send landed in one interval" 1
    (List.length
       (List.filter (fun s -> s.Rina_util.Telemetry.sent > 0) snaps));
  Alcotest.check_raises "snapshots need telemetry"
    (Invalid_argument "Trace.snapshots: attach with ~telemetry before scheduling")
    (fun () ->
      let tr2 = Trace.create e in
      Trace.attach tr2;
      Fun.protect ~finally:(fun () -> Trace.close tr2) (fun () ->
          Trace.snapshots tr2 ~interval:0.5 ~until:1.))

(* Streaming sink: the JSONL file written as events happen must be
   byte-identical to saving the buffered trace of the same run. *)
let test_trace_stream_sink_identical () =
  let scenario () =
    let e = Engine.create () in
    let rec tick i =
      if i <= 50 then begin
        Flight.emit_to (Engine.flight e) ~component:"s" ~flow:2 ~seq:i ~size:100
          ~span:(Flight.span_of ~flow:2 ~seq:i)
          (if i mod 7 = 0 then Flight.Pdu_dropped Flight.R_loss
           else Flight.Pdu_sent);
        ignore (Engine.schedule e ~delay:0.01 (fun () -> tick (i + 1)))
      end
    in
    ignore (Engine.schedule e ~delay:0. (fun () -> tick 1));
    e
  in
  let buf_path = Filename.temp_file "rina_trace_buf" ".jsonl" in
  let stream_path = Filename.temp_file "rina_trace_stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove buf_path;
      Sys.remove stream_path)
    (fun () ->
      (let e = scenario () in
       let tr = Trace.create e in
       Trace.attach ~sample_rate:0.5 tr;
       Engine.run e;
       Trace.close tr;
       Trace.save_jsonl tr buf_path);
      (let e = scenario () in
       let tr = Trace.create e in
       Trace.attach ~sample_rate:0.5 ~stream:stream_path tr;
       Engine.run e;
       Trace.close tr);
      let read p = In_channel.with_open_text p In_channel.input_all in
      check Alcotest.bool "streamed file byte-identical to buffered save"
        true
        (read buf_path = read stream_path);
      match Trace.load_jsonl stream_path with
      | Error msg -> Alcotest.failf "streamed file unreadable: %s" msg
      | Ok evs ->
        check Alcotest.bool "sampled: fewer than every event" true
          (List.length evs < 52
          && List.length evs > 2 (* meta marker + some kept spans *)))

(* A sampled trace carries its keep rate as a marker event; offline
   analysis reads it back and scales sampled counts to population
   estimates. *)
let test_trace_sample_ppm_marker () =
  let e = Engine.create () in
  let tr = Trace.create e in
  Trace.attach ~sample_rate:0.25 tr;
  Flight.emit_to (Engine.flight e) ~component:"x" ~flow:1 ~seq:1 ~size:10
    (Flight.Custom "evt");
  Trace.close tr;
  (match Trace_report.sample_ppm (Trace.typed_events tr) with
  | Some ppm -> check Alcotest.int "sample_ppm read back" 250_000 ppm
  | None -> Alcotest.fail "sampled trace is missing the meta:sample_ppm marker");
  check Alcotest.int "scale_count inverts the keep rate" 400
    (Trace_report.scale_count ~ppm:250_000 100);
  (* unsampled traces carry no marker and scale by 1 *)
  let e2 = Engine.create () in
  let tr2 = Trace.create e2 in
  Trace.attach tr2;
  Trace.close tr2;
  check Alcotest.bool "full trace has no marker" true
    (Trace_report.sample_ppm (Trace.typed_events tr2) = None);
  check Alcotest.int "full trace scales by 1" 100
    (Trace_report.scale_count ~ppm:1_000_000 100)

(* Each engine owns its recorder and its checks.  Two engines in one
   domain, each with its own trace and only the first checked, run
   interleaved: each trace equals the one its engine writes alone, and
   only the first engine's components check invariants. *)
let test_trace_two_engines_independent () =
  let start label =
    let e = Engine.create () in
    let tr = Trace.create e in
    Trace.attach tr;
    let l = Link.create e (Prng.create 5) ~bit_rate:1e6 ~delay:0.001 ~label () in
    (Link.endpoint_b l).Chan.set_receiver ignore;
    let rec tick () =
      (Link.endpoint_a l).Chan.send (Bytes.create 100);
      ignore (Engine.schedule e ~delay:0.01 tick)
    in
    ignore (Engine.schedule e ~delay:0. tick);
    (e, tr, l)
  in
  let alone label =
    let e, tr, _ = start label in
    Engine.run ~until:1. e;
    Trace.close tr;
    Trace.typed_events tr
  in
  let e1, tr1, l1 = start "one" in
  let e2, tr2, l2 = start "two" in
  Sanitizer.enable e1;
  for step = 1 to 10 do
    let until = 0.1 *. float_of_int step in
    Engine.run ~until e1;
    Engine.run ~until e2
  done;
  Rina_util.Invariant.record (Engine.checks e1) ~code:"SAN_TEST" "first engine";
  Trace.close tr1;
  Trace.close tr2;
  check Alcotest.bool "first trace holds only its engine's events" true
    (Trace.typed_events tr1 = alone "one");
  check Alcotest.bool "second trace holds only its engine's events" true
    (Trace.typed_events tr2 = alone "two");
  let codes e =
    List.map (fun (d : Rina_check.Diag.t) -> d.code) (Sanitizer.violations e)
  in
  check Alcotest.(list string) "violation on the checked engine" [ "SAN_TEST" ]
    (codes e1);
  check Alcotest.(list string) "none on the other" [] (codes e2);
  check Alcotest.bool "checked link counted its frames" true
    ((Link.conservation_a l1).Link.injected > 0);
  check Alcotest.int "unchecked link counted none" 0
    (Link.conservation_a l2).Link.injected;
  Sanitizer.disable e1;
  check Alcotest.bool "disabled" false (Sanitizer.enabled e1)

(* Offline analysis must tolerate out-of-order input: the receive event
   arriving before the send must still join into one span. *)
let test_trace_span_join_out_of_order () =
  let span = Flight.span_of ~flow:9 ~seq:1 in
  let mk time component kind =
    { Flight.time; component; kind; flow = 9; rank = 0; seq = 1; size = 100; span }
  in
  let events =
    [
      mk 2.5 "efcp" Flight.Pdu_recvd;
      (* out of order: delivery first *)
      mk 1.0 "efcp" Flight.Pdu_sent;
      mk 1.5 "rmt:d@1" Flight.Retransmit;
    ]
  in
  (match Trace_report.latency_by_flow events with
  | [ (9, st) ] ->
    check Alcotest.int "one sample" 1 (Rina_util.Stats.count st);
    (* earliest send (1.0) to earliest delivery (2.5), ignoring the
       retransmitted copy *)
    check (Alcotest.float 1e-9) "latency" 1.5 (Rina_util.Stats.mean st)
  | _ -> Alcotest.fail "expected exactly flow 9");
  match Trace_report.span_tree events with
  | [ (s, steps) ] ->
    check Alcotest.bool "span id" true (s = span);
    check
      Alcotest.(list (pair string string))
      "time-sorted steps"
      [ ("efcp", "pdu_sent"); ("rmt:d@1", "retransmit"); ("efcp", "pdu_recvd") ]
      (List.map (fun (_, c, k) -> (c, k)) steps)
  | other -> Alcotest.failf "expected one span, got %d" (List.length other)

(* End-to-end span joining over a stacked (2-DIF) arrangement with a
   relay in the lower DIF: one SDU sent on the upper flow must produce
   an upper-DIF span (efcp -> rmt -> rmt -> efcp, rank 1) and a
   lower-DIF span that crosses the relay (efcp -> rmt at each of the
   three members -> efcp, rank 0). *)
let test_trace_relay_span_tree () =
  let e = Engine.create () in
  let rng = Prng.create 42 in
  let lower = Dif.create e "low" in
  let la = Dif.add_member lower ~name:"la" () in
  let lr = Dif.add_member lower ~name:"lr" () in
  let lb = Dif.add_member lower ~name:"lb" () in
  let mk_link () = Link.create e rng ~bit_rate:10_000_000. ~delay:0.001 () in
  let l1 = mk_link () and l2 = mk_link () in
  (* a line: la - lr - lb, so la<->lb traffic relays through lr *)
  Dif.connect lower la lr (Link.endpoint_a l1, Link.endpoint_b l1);
  Dif.connect lower lr lb (Link.endpoint_a l2, Link.endpoint_b l2);
  Dif.run_until_converged lower ();
  let upper = Dif.create e ~rank:1 "up" in
  let ua = Dif.add_member upper ~name:"ua" () in
  let ub = Dif.add_member upper ~name:"ub" () in
  Dif.stack_connect ~lower_a:la ~lower_b:lb ~upper_a:ua ~upper_b:ub ();
  Dif.run_until_converged upper ();
  let received = ref 0 in
  Ipcp.register_app ub (Types.apn "server") ~on_flow:(fun fl ->
      fl.Ipcp.set_on_receive (fun _ -> incr received));
  let tr = Trace.create e in
  Trace.attach tr;
  Ipcp.allocate_flow ua ~src:(Types.apn "client") ~dst:(Types.apn "server")
    ~qos_id:0
    ~on_result:(fun r ->
      match r with
      | Ok fl -> fl.Ipcp.send (Bytes.create 64)
      | Error msg -> Alcotest.failf "allocate failed: %s" msg);
  Engine.run ~until:(Engine.now e +. 10.) e;
  Trace.close tr;
  check Alcotest.bool "SDU delivered" true (!received >= 1);
  let evs = Trace.typed_events tr in
  (* group the PDU-lifecycle events per span, in time order *)
  let shape_of (_, steps) =
    List.map (fun (_, c, k) -> (c, k)) steps
  in
  let shapes = List.map shape_of (Trace_report.span_tree ~max_spans:max_int evs) in
  let is_rmt prefix c =
    String.length c > String.length prefix && String.sub c 0 (String.length prefix) = prefix
  in
  let upper_shape shape =
    match shape with
    | [ ("efcp", "pdu_sent"); (r1, "pdu_sent"); (r2, "pdu_recvd"); ("efcp", "pdu_recvd") ]
      when is_rmt "rmt:up@" r1 && is_rmt "rmt:up@" r2 && r1 <> r2 -> true
    | _ -> false
  in
  let lower_relay_shape shape =
    match shape with
    | [
        ("efcp", "pdu_sent");
        (r1, "pdu_sent");
        (r2, "pdu_sent");
        (* the relay retransmits the PDU unchanged: same span *)
        (r3, "pdu_recvd");
        ("efcp", "pdu_recvd");
      ]
      when is_rmt "rmt:low@" r1 && is_rmt "rmt:low@" r2 && is_rmt "rmt:low@" r3
           && r1 <> r2 && r2 <> r3 -> true
    | _ -> false
  in
  check Alcotest.bool "upper-DIF span (no relay)" true
    (List.exists upper_shape shapes);
  check Alcotest.bool "lower-DIF span crosses the relay" true
    (List.exists lower_relay_shape shapes);
  (* rank stamping: efcp/rmt events of the upper DIF carry rank 1,
     lower-DIF ones rank 0 *)
  List.iter
    (fun ev ->
      if is_rmt "rmt:up@" ev.Flight.component then
        check Alcotest.int "upper rank" 1 ev.Flight.rank
      else if is_rmt "rmt:low@" ev.Flight.component then
        check Alcotest.int "lower rank" 0 ev.Flight.rank)
    evs

(* ---------- Fault injection ---------- *)

let test_fault_events_sorted_and_replayable () =
  let build () =
    let p = Fault.create () in
    Fault.inject p ~at:5. ~label:"late" (fun () -> ());
    Fault.window p ~at:1. ~until:3. ~label:"win"
      ~apply:(fun () -> ())
      ~heal:(fun () -> ());
    Fault.heal_at p ~at:2. ~label:"late" (fun () -> ());
    p
  in
  let evs = Fault.events (build ()) in
  check
    Alcotest.(list (pair (float 1e-9) string))
    "sorted schedule"
    [ (1., "fault:win"); (2., "heal:late"); (3., "heal:win"); (5., "fault:late") ]
    evs;
  check
    Alcotest.(list (pair (float 1e-9) string))
    "identical plans compare equal" evs
    (Fault.events (build ()))

let test_fault_window_rejects_empty () =
  let p = Fault.create () in
  Alcotest.check_raises "until <= at"
    (Invalid_argument "Fault.window: until must be after at") (fun () ->
      Fault.window p ~at:2. ~until:2. ~label:"x"
        ~apply:(fun () -> ())
        ~heal:(fun () -> ()))

let test_fault_arm_fires_on_schedule () =
  let e = Engine.create () in
  let tr = Trace.create e in
  let log = ref [] in
  let p = Fault.create () in
  Fault.window p ~at:1. ~until:2. ~label:"w"
    ~apply:(fun () -> log := (Engine.now e, "apply") :: !log)
    ~heal:(fun () -> log := (Engine.now e, "heal") :: !log);
  Fault.inject p ~at:0.5 ~label:"one-shot" (fun () ->
      log := (Engine.now e, "shot") :: !log);
  Fault.arm p e;
  Trace.attach tr;
  Engine.run e;
  Trace.close tr;
  check
    Alcotest.(list (pair (float 1e-9) string))
    "actions at plan times"
    [ (0.5, "shot"); (1., "apply"); (2., "heal") ]
    (List.rev !log);
  let customs =
    List.filter_map
      (fun (ev : Flight.event) ->
        match ev.Flight.kind with
        | Flight.Custom s when ev.Flight.component = "fault" ->
          Some (ev.Flight.time, s)
        | _ -> None)
      (Trace.typed_events tr)
  in
  check
    Alcotest.(list (pair (float 1e-9) string))
    "flight events mirror the schedule"
    [ (0.5, "fault:one-shot"); (1., "fault:w"); (2., "heal:w") ]
    customs

let test_fault_blackhole_conservation () =
  let e = Engine.create () in
  Sanitizer.enable e;
  let rng = Prng.create 3 in
  let l =
    Link.create e rng ~bit_rate:1_000_000. ~delay:0.001 ~label:"bh" ()
  in
  let tr = Trace.create e in
  Trace.attach tr;
  let received = ref 0 in
  (Link.endpoint_b l).Chan.set_receiver (fun _ -> incr received);
  let p = Fault.create () in
  Fault.link_blackhole p ~at:0.05 ~until:0.15 l;
  Fault.arm p e;
  (* one frame per 10 ms for 200 ms: ~10 land inside the window *)
  for i = 0 to 19 do
    ignore
      (Engine.schedule_at e
         ~time:(0.01 *. float_of_int i)
         (fun () -> (Link.endpoint_a l).Chan.send (Bytes.create 64)))
  done;
  Engine.run e;
  Trace.close tr;
  let c = Link.conservation_a l in
  Alcotest.(check bool) "some frames blackholed" true (c.Link.blackholed > 0);
  check Alcotest.int "conservation holds" c.Link.injected
    (c.Link.delivered + c.Link.dropped + c.Link.blackholed);
  check Alcotest.int "delivered = received" c.Link.delivered !received;
  check (Alcotest.list Alcotest.string) "audit clean" []
    (List.map
       (fun (d : Rina_check.Diag.t) -> d.Rina_check.Diag.code)
       (Sanitizer.audit_link l));
  let bh_drops =
    List.filter
      (fun (ev : Flight.event) ->
        ev.Flight.kind = Flight.Pdu_dropped Flight.R_blackhole)
      (Trace.typed_events tr)
  in
  check Alcotest.int "R_blackhole drops traced" c.Link.blackholed
    (List.length bh_drops)

let test_fault_rejects_non_finite () =
  let p = Fault.create () in
  Alcotest.check_raises "inject nan"
    (Invalid_argument "Fault.inject: time must be finite") (fun () ->
      Fault.inject p ~at:Float.nan ~label:"x" (fun () -> ()));
  Alcotest.check_raises "heal_at infinite"
    (Invalid_argument "Fault.heal_at: time must be finite") (fun () ->
      Fault.heal_at p ~at:Float.infinity ~label:"x" (fun () -> ()));
  Alcotest.check_raises "window nan start"
    (Invalid_argument "Fault.window: time must be finite") (fun () ->
      Fault.window p ~at:Float.nan ~until:2. ~label:"x"
        ~apply:(fun () -> ())
        ~heal:(fun () -> ()));
  Alcotest.check_raises "window infinite end"
    (Invalid_argument "Fault.window: time must be finite") (fun () ->
      Fault.window p ~at:1. ~until:Float.neg_infinity ~label:"x"
        ~apply:(fun () -> ())
        ~heal:(fun () -> ()));
  check Alcotest.(list (pair (float 1e-9) string)) "plan untouched" []
    (Fault.events p)

(* ---------- Mangle ---------- *)

let test_mangle_make_validation () =
  Alcotest.check_raises "corrupt out of range"
    (Invalid_argument "Mangle.make: corrupt must be in [0, 1]") (fun () ->
      ignore (Mangle.make ~corrupt:1.5 ()));
  Alcotest.check_raises "duplicate nan"
    (Invalid_argument "Mangle.make: duplicate must be in [0, 1]") (fun () ->
      ignore (Mangle.make ~duplicate:Float.nan ()));
  Alcotest.check_raises "dup_delay zero"
    (Invalid_argument "Mangle.make: dup_delay must be positive") (fun () ->
      ignore (Mangle.make ~dup_delay:0. ()));
  Alcotest.check_raises "max_displacement zero"
    (Invalid_argument "Mangle.make: max_displacement must be positive")
    (fun () -> ignore (Mangle.make ~max_displacement:0 ()));
  Alcotest.(check bool) "none is none" true (Mangle.is_none Mangle.none);
  Alcotest.(check bool) "corrupting spec is not none" false
    (Mangle.is_none (Mangle.make ~corrupt:0.1 ()))

let test_mangle_flip_bit () =
  let zeros = Bytes.make 8 '\x00' in
  let flipped = Mangle.flip_bit zeros 13 in
  Alcotest.(check bool) "copy, not in place" true
    (Bytes.equal zeros (Bytes.make 8 '\x00'));
  let popcount b =
    let n = ref 0 in
    Bytes.iter
      (fun c ->
        let v = ref (Char.code c) in
        while !v <> 0 do
          n := !n + (!v land 1);
          v := !v lsr 1
        done)
      b;
    !n
  in
  check Alcotest.int "exactly one bit differs" 1 (popcount flipped);
  Alcotest.(check bool) "double flip restores" true
    (Bytes.equal zeros (Mangle.flip_bit flipped 13));
  Alcotest.(check bool) "bit index wraps" true
    (Bytes.equal (Mangle.flip_bit zeros 64) (Mangle.flip_bit zeros 0));
  let empty = Bytes.create 0 in
  Alcotest.(check bool) "empty frame unchanged" true
    (Bytes.equal empty (Mangle.flip_bit empty 3))

let test_mangle_decide_deterministic () =
  let spec =
    Mangle.make ~corrupt:0.3 ~duplicate:0.2 ~reorder:0.4 ~max_displacement:6
      ~delay_spike:0.1 ()
  in
  let run seed =
    let st = Mangle.make_state spec in
    let rng = Prng.create seed in
    List.init 200 (fun _ ->
        let d = Mangle.decide st rng ~frame_bits:512 in
        ( d.Mangle.corrupt_bit,
          d.Mangle.dup,
          d.Mangle.spike_by,
          d.Mangle.displacement ))
  in
  Alcotest.(check bool) "same seed, same schedule" true (run 42 = run 42);
  Alcotest.(check bool) "different seed, different schedule" true
    (run 42 <> run 43);
  Alcotest.(check bool) "displacement bounded by max" true
    (List.for_all (fun (_, _, _, disp) -> disp >= 0 && disp <= 6) (run 42));
  Alcotest.(check bool) "something actually mangled" true
    (List.exists (fun (bit, _, _, _) -> bit >= 0) (run 42))

(* Conservation under each mangle mode: corruption perturbs payloads but
   never frame counts; duplication adds one injected per copy so the
   identity still balances; reordering holds frames back but releases
   every one of them. *)
let mangle_pump spec n =
  let e = Engine.create () in
  Sanitizer.enable e;
  let rng = Prng.create 7 in
  let l =
    Link.create e rng ~bit_rate:1_000_000. ~delay:0.001 ~label:"mangled"
      ~mangle:spec ()
  in
  let received = ref [] in
  (Link.endpoint_b l).Chan.set_receiver (fun frame ->
      received := frame :: !received);
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule_at e
         ~time:(0.002 *. float_of_int i)
         (fun () ->
           let frame = Bytes.make 64 '\x00' in
           Bytes.set_int32_be frame 0 (Int32.of_int i);
           (Link.endpoint_a l).Chan.send frame))
  done;
  Engine.run e;
  (l, List.rev !received)

let test_link_mangle_corrupt_conservation () =
  let l, received = mangle_pump (Mangle.make ~corrupt:1.0 ()) 50 in
  let c = Link.conservation_a l in
  check Alcotest.int "all frames delivered" 50 (List.length received);
  check Alcotest.int "conservation holds" c.Link.injected
    (c.Link.delivered + c.Link.dropped + c.Link.blackholed);
  check Alcotest.int "every frame counted corrupt" 50
    (Rina_util.Metrics.get (Link.stats_a l) "mangle_corrupt");
  (* Reconstruct each original and require exactly one flipped bit. *)
  let one_bit_off frame =
    let seq = Int32.to_int (Bytes.get_int32_be frame 0) in
    let original = Bytes.make 64 '\x00' in
    Bytes.set_int32_be original 0 (Int32.of_int seq);
    let diff = ref 0 in
    Bytes.iteri
      (fun i c ->
        let v = ref (Char.code c lxor Char.code (Bytes.get original i)) in
        while !v <> 0 do
          diff := !diff + (!v land 1);
          v := !v lsr 1
        done)
      frame;
    !diff <= 1
  in
  (* A flip inside the seq field yields 0 visible diffs (the original is
     reconstructed from the corrupted seq); anywhere else exactly 1. *)
  Alcotest.(check bool) "frames differ from originals by at most one bit" true
    (List.for_all one_bit_off received)

let test_link_mangle_duplicate_conservation () =
  let l, received = mangle_pump (Mangle.make ~duplicate:1.0 ()) 40 in
  let c = Link.conservation_a l in
  check Alcotest.int "each frame arrives twice" 80 (List.length received);
  check Alcotest.int "copies counted as injected" 80 c.Link.injected;
  check Alcotest.int "conservation holds" c.Link.injected
    (c.Link.delivered + c.Link.dropped + c.Link.blackholed);
  check Alcotest.int "dup metric" 40
    (Rina_util.Metrics.get (Link.stats_a l) "mangle_dup")

let test_link_mangle_reorder_conservation () =
  let l, received =
    mangle_pump (Mangle.make ~reorder:0.5 ~max_displacement:4 ()) 200
  in
  let c = Link.conservation_a l in
  check Alcotest.int "nothing lost to holdback" 200 (List.length received);
  check Alcotest.int "conservation holds" c.Link.injected
    (c.Link.delivered + c.Link.dropped + c.Link.blackholed);
  Alcotest.(check bool) "some frames held back" true
    (Rina_util.Metrics.get (Link.stats_a l) "mangle_reorder" > 0);
  let seqs =
    List.map (fun frame -> Int32.to_int (Bytes.get_int32_be frame 0)) received
  in
  Alcotest.(check bool) "delivery order actually perturbed" true
    (seqs <> List.init 200 Fun.id);
  Alcotest.(check bool) "every frame delivered exactly once" true
    (List.sort compare seqs = List.init 200 Fun.id)

(* Regression: frames the mangler is holding back for reorder must not
   outlive a crash of the endpoint they are heading for.  Before the
   fix, the max-hold flush redelivered them after the endpoint had
   restarted — to a process with a fresh address that never saw the
   original flow.  Now [Link.crash_endpoint] voids the holds and they
   drop with the typed [R_endpoint_crash] reason. *)
let test_link_holdback_vs_endpoint_crash () =
  let e = Engine.create () in
  Sanitizer.enable e;
  let rng = Prng.create 11 in
  (* Every frame is held, and needs more overtakers than will ever
     come, so only the max-hold flush (or the crash) can resolve it. *)
  let spec = Mangle.make ~reorder:1.0 ~max_displacement:64 ~max_hold:0.2 () in
  let l =
    Link.create e rng ~bit_rate:1_000_000. ~delay:0.001 ~label:"crashy"
      ~mangle:spec ()
  in
  let tr = Rina_sim.Trace.create e in
  Rina_sim.Trace.attach tr;
  let received = ref 0 in
  (Link.endpoint_b l).Chan.set_receiver (fun _ -> incr received);
  for i = 0 to 9 do
    ignore
      (Engine.schedule_at e
         ~time:(0.002 *. float_of_int i)
         (fun () -> (Link.endpoint_a l).Chan.send (Bytes.make 64 'h')))
  done;
  (* Crash B while every frame is still held back (holds flush at
     ~0.2 s); a restarted process would re-arm the same receiver. *)
  ignore (Engine.schedule_at e ~time:0.05 (fun () -> Link.crash_endpoint l `B));
  Engine.run e;
  Rina_sim.Trace.close tr;
  let c = Link.conservation_a l in
  check Alcotest.int "nothing delivered after the crash" 0 !received;
  check Alcotest.int "all ten died as crash drops" 10
    (Rina_util.Metrics.get (Link.stats_a l) "dropped_crash");
  check Alcotest.int "conservation still balances" c.Link.injected
    (c.Link.delivered + c.Link.dropped + c.Link.blackholed);
  let crash_drops =
    List.length
      (List.filter
         (fun (ev : Flight.event) ->
           match ev.Flight.kind with
           | Flight.Pdu_dropped Flight.R_endpoint_crash -> true
           | _ -> false)
         (Rina_sim.Trace.typed_events tr))
  in
  check Alcotest.int "typed drop reason in the trace" 10 crash_drops

(* The crash voids only the direction toward the dead endpoint: the
   survivor keeps receiving what the (pre-crash) peer had in flight. *)
let test_link_crash_is_directional () =
  let e = Engine.create () in
  let rng = Prng.create 12 in
  let l = Link.create e rng ~bit_rate:1_000_000. ~delay:0.01 () in
  let at_a = ref 0 and at_b = ref 0 in
  (Link.endpoint_a l).Chan.set_receiver (fun _ -> incr at_a);
  (Link.endpoint_b l).Chan.set_receiver (fun _ -> incr at_b);
  (* Both directions have a frame in flight when B dies. *)
  ignore
    (Engine.schedule_at e ~time:0.001 (fun () ->
         (Link.endpoint_a l).Chan.send (Bytes.make 32 'x');
         (Link.endpoint_b l).Chan.send (Bytes.make 32 'y')));
  ignore (Engine.schedule_at e ~time:0.005 (fun () -> Link.crash_endpoint l `B));
  (* After the crash the link itself still works for new A-bound frames. *)
  ignore
    (Engine.schedule_at e ~time:0.02 (fun () ->
         (Link.endpoint_b l).Chan.send (Bytes.make 32 'z')));
  Engine.run e;
  check Alcotest.int "survivor got both frames toward it" 2 !at_a;
  check Alcotest.int "crashed side got nothing" 0 !at_b

(* End-to-end property: whatever seeded mangle schedule the link runs
   (corruption + duplication + reordering + delay spikes), a reliable
   flow through a DIF still delivers each SDU exactly once, in order —
   and a same-seed replay records the identical flight trace. *)
let run_mangled_transfer seed n =
  let srng = Prng.create ((seed * 7) + 1) in
  let spec =
    Mangle.make
      ~corrupt:(0.005 +. Prng.float srng 0.03)
      ~duplicate:(0.005 +. Prng.float srng 0.03)
      ~reorder:(0.01 +. Prng.float srng 0.08)
      ~max_displacement:(1 + Prng.int srng 8)
      ~delay_spike:(Prng.float srng 0.04)
      ()
  in
  let e = Engine.create () in
  let rng = Prng.create seed in
  let dif = Dif.create e "adv" in
  let a = Dif.add_member dif ~name:"a" () in
  let b = Dif.add_member dif ~name:"b" () in
  let l = Link.create e rng ~bit_rate:10_000_000. ~delay:0.001 () in
  Dif.connect dif a b (Link.endpoint_a l, Link.endpoint_b l);
  Dif.run_until_converged dif ();
  let tr = Trace.create e in
  Trace.attach tr;
  let delivered = ref [] in
  Ipcp.register_app b (Types.apn "sink") ~on_flow:(fun fl ->
      fl.Ipcp.set_on_receive (fun sdu ->
          delivered := Int32.to_int (Bytes.get_int32_be sdu 0) :: !delivered));
  Ipcp.allocate_flow a ~src:(Types.apn "src") ~dst:(Types.apn "sink") ~qos_id:1
    ~on_result:(fun r ->
      match r with
      | Ok fl ->
        (* The control plane is up; now turn the channel hostile and
           push the transfer through it. *)
        Link.set_mangle l spec;
        for i = 0 to n - 1 do
          let sdu = Bytes.make 32 'q' in
          Bytes.set_int32_be sdu 0 (Int32.of_int i);
          fl.Ipcp.send sdu
        done
      | Error msg -> Alcotest.failf "allocate failed: %s" msg);
  Engine.run ~until:(Engine.now e +. 60.) e;
  Trace.close tr;
  (List.rev !delivered, Trace.typed_events tr)

let prop_mangled_exactly_once_and_replayable =
  QCheck.Test.make ~name:"mangled link: exactly-once delivery + exact replay"
    ~count:12
    QCheck.(pair (int_range 0 100_000) (int_range 20 60))
    (fun (seed, n) ->
      let delivered, trace = run_mangled_transfer seed n in
      let delivered', trace' = run_mangled_transfer seed n in
      delivered = List.init n Fun.id
      && delivered' = delivered
      && trace = trace')

(* ---------- multipath: dual-homed failover ---------- *)

module Policy = Rina_core.Policy

(* The multipath monitor armed with a fast probe cadence. *)
let mp_policy =
  {
    Policy.default with
    Policy.multipath =
      { Policy.default_multipath with Policy.probe_interval = 0.05; reprobe_backoff = 0.1 };
  }

(* Two members joined by two parallel links (a dual-homed adjacency),
   multipath monitor armed.  Mid-transfer one link loses carrier: the
   stranded PDUs must be re-striped onto the survivor within a probe
   interval (no dead-peer wait), delivery stays exactly-once in order,
   and once the link returns the path is probed back to Up. *)
let test_multipath_failover_and_recovery () =
  let e = Engine.create () in
  let rng = Prng.create 42 in
  let dif = Dif.create e ~policy:mp_policy "mp" in
  let a = Dif.add_member dif ~name:"a" () in
  let b = Dif.add_member dif ~name:"b" () in
  let l1 = Link.create e rng ~bit_rate:10_000_000. ~delay:0.001 ~label:"p1" () in
  let l2 = Link.create e rng ~bit_rate:10_000_000. ~delay:0.001 ~label:"p2" () in
  Dif.connect dif a b (Link.endpoint_a l1, Link.endpoint_b l1);
  Dif.connect dif a b (Link.endpoint_a l2, Link.endpoint_b l2);
  Dif.run_until_converged dif ();
  let delivered = ref [] in
  Ipcp.register_app b (Types.apn "sink") ~on_flow:(fun fl ->
      fl.Ipcp.set_on_receive (fun sdu ->
          delivered := Int32.to_int (Bytes.get_int32_be sdu 0) :: !delivered));
  let n = 60 in
  Ipcp.allocate_flow a ~src:(Types.apn "src") ~dst:(Types.apn "sink") ~qos_id:1
    ~on_result:(fun r ->
      match r with
      | Ok fl ->
        let t0 = Engine.now e in
        for i = 0 to n - 1 do
          ignore
            (Engine.schedule_at e
               ~time:(t0 +. (0.01 *. float_of_int i))
               (fun () ->
                 let sdu = Bytes.make 32 'm' in
                 Bytes.set_int32_be sdu 0 (Int32.of_int i);
                 fl.Ipcp.send sdu))
        done;
        (* kill one member path mid-stream, revive it later *)
        ignore
          (Engine.schedule_at e ~time:(t0 +. 0.15) (fun () ->
               Link.set_up l1 false));
        ignore
          (Engine.schedule_at e ~time:(t0 +. 0.40) (fun () ->
               Link.set_up l1 true))
      | Error msg -> Alcotest.failf "allocate failed: %s" msg);
  Engine.run ~until:(Engine.now e +. 10.) e;
  check Alcotest.(list int) "exactly once, in order" (List.init n Fun.id)
    (List.rev !delivered);
  let am = Ipcp.metrics a in
  Alcotest.(check bool) "sender ran fast failover" true
    (Rina_util.Metrics.get am "failovers" >= 1);
  Alcotest.(check bool) "path went down" true
    (Rina_util.Metrics.get am "path_down" >= 1);
  Alcotest.(check bool) "path probed back up" true
    (Rina_util.Metrics.get am "path_up" >= 1);
  (* both paths healthy again at the end *)
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "healthy at end: %s" line)
        true
        (contains_sub line "=up"))
    (Ipcp.path_health a);
  Alcotest.(check bool) "striping used both ports before the kill" true
    (Rina_util.Metrics.get (Ipcp.rmt_metrics a) "sent_port1" > 0
    && Rina_util.Metrics.get (Ipcp.rmt_metrics a) "sent_port2" > 0)

(* ---------- multipath: random fault window ---------- *)

(* A dual-homed segment (a ==2 links== r) feeding one more hop r -> b,
   all in one DIF on one engine.  A seeded fault window downs one
   member link mid-transfer and revives it.  The reliable flow must
   deliver exactly-once in order, and two runs of the same seed must
   return the same delivery log — arrival time and payload: the
   failover machinery (probe timers, WRR striping, re-striping of
   stranded PDUs) sits inside the determinism contract. *)
let run_failover_trial ~seed ~kill_at ~kill_for =
  let e = Engine.create () in
  let rng = Prng.create seed in
  let dif = Dif.create e ~policy:mp_policy "mpf" in
  let a = Dif.add_member dif ~name:"a" () in
  let r = Dif.add_member dif ~name:"r" () in
  let b = Dif.add_member dif ~name:"b" () in
  let l1 = Link.create e rng ~bit_rate:10_000_000. ~delay:0.001 ~label:"m1" () in
  let l2 = Link.create e rng ~bit_rate:10_000_000. ~delay:0.001 ~label:"m2" () in
  let x = Link.create e rng ~bit_rate:10_000_000. ~delay:0.005 ~label:"x" () in
  Dif.connect dif a r (Link.endpoint_a l1, Link.endpoint_b l1);
  Dif.connect dif a r (Link.endpoint_a l2, Link.endpoint_b l2);
  Dif.connect dif r b (Link.endpoint_a x, Link.endpoint_b x);
  Dif.run_until_converged dif ();
  let converged =
    List.for_all
      (fun ip -> Ipcp.is_enrolled ip && Ipcp.lsdb_size ip >= 3)
      [ a; r; b ]
  in
  let log = ref [] in
  let alloc_failed = ref false in
  Ipcp.register_app b (Types.apn "sink") ~on_flow:(fun fl ->
      fl.Ipcp.set_on_receive (fun sdu ->
          log := (Engine.now e, Int32.to_int (Bytes.get_int32_be sdu 0)) :: !log));
  let n = 40 in
  let base = Engine.now e in
  Ipcp.allocate_flow a ~src:(Types.apn "src") ~dst:(Types.apn "sink") ~qos_id:1
    ~on_result:(fun res ->
      match res with
      | Ok fl ->
        let t0 = Engine.now e in
        for i = 0 to n - 1 do
          ignore
            (Engine.schedule_at e
               ~time:(t0 +. (0.01 *. float_of_int i))
               (fun () ->
                 let sdu = Bytes.make 32 's' in
                 Bytes.set_int32_be sdu 0 (Int32.of_int i);
                 fl.Ipcp.send sdu))
        done
      | Error _ -> alloc_failed := true);
  ignore
    (Engine.schedule_at e ~time:(base +. kill_at) (fun () -> Link.set_up l1 false));
  ignore
    (Engine.schedule_at e
       ~time:(base +. kill_at +. kill_for)
       (fun () -> Link.set_up l1 true));
  Engine.run ~until:(base +. 15.) e;
  (List.rev !log, converged && not !alloc_failed)

let prop_multipath_failover =
  QCheck.Test.make
    ~name:"multipath: random fault window, exactly-once, same-seed replay"
    ~count:6
    QCheck.(triple (int_range 0 100_000) (int_range 0 20) (int_range 1 25))
    (fun (seed, kill_slot, dur_slot) ->
      let kill_at = 0.02 +. (0.01 *. float_of_int kill_slot) in
      let kill_for = 0.02 *. float_of_int dur_slot in
      let log1, ok1 = run_failover_trial ~seed ~kill_at ~kill_for in
      let log2, ok2 = run_failover_trial ~seed ~kill_at ~kill_for in
      ok1 && ok2 && List.map snd log1 = List.init 40 Fun.id && log1 = log2)

(* ---------- frames are not changed in flight ---------- *)

(* A checking interposer on both endpoints of a link.  Each direction
   keeps the frames sent into it, copied at [send]; a frame delivered
   out of it must equal one of them not matched yet.  A mismatch means
   some holder wrote into a frame after handing it to the channel. *)
let checked_link l violations =
  let ab = Hashtbl.create 64 and ba = Hashtbl.create 64 in
  let record sent frame =
    let k = Bytes.to_string frame in
    Hashtbl.replace sent k (1 + Option.value ~default:0 (Hashtbl.find_opt sent k))
  in
  let consume sent frame =
    let k = Bytes.to_string frame in
    match Hashtbl.find_opt sent k with
    | Some n when n > 1 -> Hashtbl.replace sent k (n - 1)
    | Some _ -> Hashtbl.remove sent k
    | None -> incr violations
  in
  let wrap (c : Chan.t) ~out ~inn =
    {
      c with
      Chan.send =
        (fun frame ->
          record out frame;
          c.Chan.send frame);
      set_receiver =
        (fun f ->
          c.Chan.set_receiver (fun frame ->
              consume inn frame;
              f frame));
    }
  in
  (wrap (Link.endpoint_a l) ~out:ab ~inn:ba, wrap (Link.endpoint_b l) ~out:ba ~inn:ab)

(* A 3-node line whose second hop is slow, so frames queue behind the
   relay and spend long on its outgoing wire.  Both hops lose frames at
   random once the flow is open, and a short go-back-N RTO then resends
   every outstanding PDU, including the ones whose first copy is still
   queued or on the wire.  The relay rewrites the TTL and marks ECN in
   the frames it forwards. *)
let run_inflight_trial ~seed ~loss =
  let engine = Engine.create () in
  let rng = Prng.create seed in
  let policy =
    {
      Rina_core.Policy.default with
      Rina_core.Policy.efcp =
        {
          Rina_core.Policy.default_efcp with
          Rina_core.Policy.init_rto = 0.05;
          min_rto = 0.01;
          rtx_strategy = Rina_core.Policy.Go_back_n;
          congestion_control = false;
        };
      congestion =
        {
          Rina_core.Policy.default_congestion with
          Rina_core.Policy.mark_threshold = 3;
          mark_probability = 0.5;
        };
    }
  in
  let dif = Dif.create engine ~policy "inflight" in
  let a = Dif.add_member dif ~name:"a" () in
  let b = Dif.add_member dif ~name:"b" () in
  let c = Dif.add_member dif ~name:"c" () in
  let violations = ref 0 in
  let fast = Link.create engine rng ~bit_rate:10_000_000. ~delay:0.001 () in
  let slow = Link.create engine rng ~bit_rate:1_000_000. ~delay:0.005 () in
  Dif.connect dif ~rate_a:10_000_000. ~rate_b:10_000_000. a b (checked_link fast violations);
  Dif.connect dif ~rate_a:1_000_000. ~rate_b:1_000_000. b c (checked_link slow violations);
  Dif.run_until_converged dif ();
  Ipcp.register_app c (Types.apn "sink") ~on_flow:(fun _ -> ());
  Ipcp.register_app a (Types.apn "src") ~on_flow:(fun _ -> ());
  let flow = ref None in
  Ipcp.allocate_flow a ~src:(Types.apn "src") ~dst:(Types.apn "sink")
    ~qos_id:Rina_core.Qos.reliable.Rina_core.Qos.id ~on_result:(function
    | Ok f -> flow := Some f
    | Error _ -> ());
  Engine.run ~until:(Engine.now engine +. 2.) engine;
  List.iter (fun l -> Link.set_loss l (Loss.Bernoulli loss)) [ fast; slow ];
  (match !flow with
  | Some f ->
    for i = 1 to 60 do
      f.Ipcp.send (Bytes.make 1000 (Char.chr (i land 0xFF)))
    done
  | None -> ());
  Engine.run ~until:(Engine.now engine +. 5.) engine;
  (Option.is_some !flow, !violations)

let prop_frames_unchanged_in_flight =
  QCheck.Test.make ~name:"frames are not changed in flight" ~count:10
    QCheck.(pair (int_range 0 100_000) (int_range 1 8))
    (fun (seed, loss_pct) ->
      let opened, violations =
        run_inflight_trial ~seed ~loss:(float_of_int loss_pct /. 100.)
      in
      opened && violations = 0)

let () =
  Alcotest.run "rina_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_clamped;
          Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "timer finer than a wheel slot" `Quick
            test_engine_timer_finer_than_slot;
          Alcotest.test_case "drops fired events" `Quick test_engine_drops_fired_events;
          Alcotest.test_case "rejects nan" `Quick test_engine_rejects_nan;
          Alcotest.test_case "burst matches heap reference" `Quick
            test_engine_burst_matches_heap_reference;
          QCheck_alcotest.to_alcotest prop_engine_matches_heap_reference;
        ] );
      ( "loss",
        [
          Alcotest.test_case "extremes" `Quick test_loss_none_and_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_loss_bernoulli_rate;
          Alcotest.test_case "gilbert-elliott average" `Quick test_loss_gilbert_elliott_average;
        ] );
      ("chan", [ Alcotest.test_case "pair" `Quick test_chan_pair ]);
      ( "link",
        [
          Alcotest.test_case "latency" `Quick test_link_latency;
          Alcotest.test_case "serialization spacing" `Quick test_link_serialization_spacing;
          Alcotest.test_case "queue overflow" `Quick test_link_queue_overflow;
          Alcotest.test_case "down + notify" `Quick test_link_down_drops_and_notifies;
          Alcotest.test_case "blackhole silent" `Quick test_link_blackhole_silent;
          Alcotest.test_case "loss" `Quick test_link_loss;
          Alcotest.test_case "directions independent" `Quick test_link_directions_independent;
        ] );
      ( "medium",
        [
          Alcotest.test_case "range and movement" `Quick test_medium_range_and_movement;
          Alcotest.test_case "emitters pinned" `Quick test_medium_emitters_pinned;
          Alcotest.test_case "edge loss grows" `Quick test_medium_edge_loss_grows;
        ] );
      ( "trace",
        [
          Alcotest.test_case "duplicate timestamps" `Quick test_trace_duplicate_gap;
          Alcotest.test_case "attach / timer events" `Quick test_trace_attach_timer_events;
          Alcotest.test_case "rejected attach changes nothing" `Quick
            test_trace_attach_rejected_rate;
          Alcotest.test_case "probe cadence" `Quick test_trace_probe;
          Alcotest.test_case "link drop reasons" `Quick test_trace_link_drop_reasons;
          Alcotest.test_case "jsonl roundtrip" `Quick test_trace_jsonl_roundtrip;
          Alcotest.test_case "corrupt jsonl rejected" `Quick test_trace_load_corrupt;
          Alcotest.test_case "snapshot timer" `Quick test_trace_snapshots;
          Alcotest.test_case "stream sink identical" `Quick
            test_trace_stream_sink_identical;
          Alcotest.test_case "sample-rate marker + scaling" `Quick
            test_trace_sample_ppm_marker;
          Alcotest.test_case "two engines observe independently" `Quick
            test_trace_two_engines_independent;
          Alcotest.test_case "span join out of order" `Quick test_trace_span_join_out_of_order;
          Alcotest.test_case "2-DIF relay span tree" `Quick test_trace_relay_span_tree;
        ] );
      ( "fault",
        [
          Alcotest.test_case "plan events sorted + replayable" `Quick
            test_fault_events_sorted_and_replayable;
          Alcotest.test_case "window rejects empty interval" `Quick
            test_fault_window_rejects_empty;
          Alcotest.test_case "arm fires on schedule" `Quick
            test_fault_arm_fires_on_schedule;
          Alcotest.test_case "blackhole conservation" `Quick
            test_fault_blackhole_conservation;
          Alcotest.test_case "non-finite times rejected" `Quick
            test_fault_rejects_non_finite;
        ] );
      ( "mangle",
        [
          Alcotest.test_case "make validation" `Quick
            test_mangle_make_validation;
          Alcotest.test_case "flip_bit" `Quick test_mangle_flip_bit;
          Alcotest.test_case "decide deterministic" `Quick
            test_mangle_decide_deterministic;
          Alcotest.test_case "corrupt conservation" `Quick
            test_link_mangle_corrupt_conservation;
          Alcotest.test_case "duplicate conservation" `Quick
            test_link_mangle_duplicate_conservation;
          Alcotest.test_case "reorder conservation" `Quick
            test_link_mangle_reorder_conservation;
          Alcotest.test_case "holdback vs endpoint crash" `Quick
            test_link_holdback_vs_endpoint_crash;
          Alcotest.test_case "crash voids one direction" `Quick
            test_link_crash_is_directional;
          QCheck_alcotest.to_alcotest prop_mangled_exactly_once_and_replayable;
        ] );
      ( "multipath",
        [
          Alcotest.test_case "dual-homed failover + recovery" `Quick
            test_multipath_failover_and_recovery;
          QCheck_alcotest.to_alcotest prop_multipath_failover;
        ] );
      ( "frames",
        [ QCheck_alcotest.to_alcotest prop_frames_unchanged_in_flight ] );
    ]
