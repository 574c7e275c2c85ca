(* The event loop is the hottest code in the repository: every frame
   costs two events, and every rank's EFCP, RMT and link work is one.

   Pending events live in a calendar queue (R. Brown, "Calendar queues:
   a fast O(1) priority queue implementation for the simulation event
   set problem", CACM 31(10), 1988).  Time is cut into buckets of one
   width; bucket [k] holds the events whose time times the inverse
   width truncates to [k], in (time, seq) order.  A ring of [nb] slots
   holds the buckets from the current one, [cur], up to a horizon [nb]
   buckets on.  An event is nearly always scheduled no earlier than the
   latest one in its bucket, so it is appended at the tail; popping
   takes the head of the first bucket at or after [cur] that holds an
   event of its own index.  Events past the horizon wait in a
   [Rina_util.Heap] overflow and move into the ring when [cur] reaches
   them.

   The queue sizes itself from its own contents.  The bucket count is
   the power of two at or above the number of pending events,
   recomputed when that number passes twice the count or falls below an
   eighth of it.  The width is Brown's: three times the mean gap between
   events, here the gap between the events popped since the last
   resize.  A resize also
   happens when the width has gone stale, that is when scanning empty
   buckets, sorted inserts and overflow pushes cost more than four steps
   per pop.  So schedule and pop are O(1) amortised, allocate nothing
   beyond growth, and memory follows the largest queue.

   The queue is written here rather than in [Rina_util]: the benchmark
   builds the dev profile, where dune compiles with [-opaque], so a call
   into another module is indirect and every float it returns is boxed.
   Here the loop reads event times straight out of a [floatarray], and
   [now] returns the boxed clock, which a pop replaces only when time
   moves on.

   Determinism contract: events fire in (time, insertion-seq) order,
   exactly the order of a heap keyed by (time, seq).  Bucket indices are
   a monotone function of time, so an earlier bucket never holds a
   later event; within a bucket the list is sorted by (time, seq).

   Periodic timer classes (RTOs, keepalives, hellos — timers that are
   usually cancelled or rescheduled) can opt into a coarse timer wheel
   that parks them outside the queue.  Wheel entries reserve their
   sequence number at schedule time and are flushed into the queue
   before any pop of an equal-or-later key, so they keep their place in
   the (time, seq) order; the wheel only changes where cancelled entries
   die (in bulk, at slot flush or reap, instead of one pop each).
   Cancelled entries in the queue are likewise reaped in bulk.

   A handle is reachable from the engine only while it is resident:
   every queue or wheel slot it vacates is overwritten with [vacant], so
   a fired event, and whatever its closure holds (often a frame), can be
   collected at once.  A cancelled event may stay resident until it is
   flushed or reaped, so [cancel] swaps its closure for [ignore] on the
   spot. *)

type lane = Default | Timer

type handle = {
  mutable cancelled : bool;
  mutable resident : bool;
  mutable action : unit -> unit;
  owner : t option;  (* [None] only for [vacant] *)
}

(* A wheel slot is a parallel-array bag (unboxed times, seqs, handles):
   parking a timer allocates nothing beyond amortised growth. *)
and wslot = {
  mutable wtimes : floatarray;
  mutable wseqs : int array;
  mutable whandles : handle array;
  mutable wlen : int;
}

(* The calendar.  Events are nodes of a pool of parallel arrays; [next]
   and [prev] link a bucket's nodes from [heads] to [tails], and [next]
   also links the free list. *)
and calendar = {
  mutable times : floatarray;
  mutable seqs : int array;
  mutable hs : handle array;
  mutable next : int array;
  mutable prev : int array;
  mutable free : int;
  mutable heads : int array;
  mutable tails : int array;
  mutable mask : int;  (* bucket count - 1; the count is a power of two *)
  mutable inv_width : float;
  mutable cur : int;  (* no node in the ring has a lower bucket index *)
  mutable in_ring : int;
  overflow : int Rina_util.Heap.t;  (* nodes past the ring's horizon *)
  mutable overflow_bucket : int;  (* bucket of its minimum, [none] if empty *)
  mutable size : int;  (* ring + overflow *)
  (* Since the last resize: *)
  mutable epoch_start : float;  (* the earliest pending time then *)
  mutable epoch_pops : int;
  mutable work : int;  (* empty buckets, sorted-insert steps, overflow pushes *)
}

and t = {
  mutable clock : float;
  cal : calendar;
  mutable next_seq : int;
  mutable executed : int;
  mutable cancelled_resident : int;
  wheel : wslot array;
  mutable wheel_count : int;
  mutable wheel_min_slot : int;
  self : t option;  (* the [owner] of this engine's handles *)
  flight : Rina_util.Flight.recorder;
  checks : Rina_util.Invariant.t;
}

let vacant = { cancelled = true; resident = false; action = ignore; owner = None }

let nil = -1

let none = max_int

(* Bucket indices saturate here, so that a huge or infinite time never
   reaches [int_of_float] and [cur + nb] cannot overflow. *)
let last_bucket = 1 lsl 61

let last_bucket_f = float_of_int last_bucket

let min_buckets = 4

(* A width is measured over at least this many pops: fewer measure a
   gap or two, not a rate. *)
let min_pops = 4

let[@inline] bucket c time =
  let x = time *. c.inv_width in
  if x < last_bucket_f then int_of_float x else last_bucket

(* [a] fires before [b]: earlier time, or the same time and scheduled
   first. *)
let[@inline] before c a b =
  let ta = Float.Array.get c.times a and tb = Float.Array.get c.times b in
  ta < tb || (ta = tb && c.seqs.(a) < c.seqs.(b))

let calendar () =
  {
    times = Float.Array.create 0;
    seqs = [||];
    hs = [||];
    next = [||];
    prev = [||];
    free = nil;
    heads = Array.make min_buckets nil;
    tails = Array.make min_buckets nil;
    mask = min_buckets - 1;
    inv_width = 1000.;  (* 1 ms, until a resize measures a width *)
    cur = 0;
    in_ring = 0;
    overflow = Rina_util.Heap.create ~filler:nil;
    overflow_bucket = none;
    size = 0;
    epoch_start = 0.;
    epoch_pops = 0;
    work = 0;
  }

let grow_pool c =
  let cap = Array.length c.hs in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let times = Float.Array.create ncap in
  Float.Array.blit c.times 0 times 0 cap;
  let seqs = Array.make ncap 0 in
  Array.blit c.seqs 0 seqs 0 cap;
  let hs = Array.make ncap vacant in
  Array.blit c.hs 0 hs 0 cap;
  let next = Array.init ncap (fun i -> if i < cap then c.next.(i) else i + 1) in
  next.(ncap - 1) <- c.free;
  let prev = Array.make ncap nil in
  Array.blit c.prev 0 prev 0 cap;
  c.times <- times;
  c.seqs <- seqs;
  c.hs <- hs;
  c.next <- next;
  c.prev <- prev;
  c.free <- cap

let release c n =
  c.hs.(n) <- vacant;
  c.next.(n) <- c.free;
  c.free <- n

(* Insert node [n] into bucket [k]'s sorted list.  A bucket behind
   [cur] (an event due before the one [run ~until] last peeked at, or a
   wheel entry flushed late) moves [cur] back to it; the ring may then
   hold nodes past the horizon, which [min_node] tells apart by their
   bucket index. *)
let link c k n =
  if k < c.cur then c.cur <- k;
  let b = k land c.mask in
  let tl = c.tails.(b) in
  if tl = nil then begin
    c.next.(n) <- nil;
    c.prev.(n) <- nil;
    c.heads.(b) <- n;
    c.tails.(b) <- n
  end
  else if before c tl n then begin
    c.next.(n) <- nil;
    c.prev.(n) <- tl;
    c.next.(tl) <- n;
    c.tails.(b) <- n
  end
  else begin
    (* [n] sorts before the tail.  Walk in from both ends at once: a
       short-delay event usually sorts near the head of its bucket, and
       the last of a burst at one instant near the tail.  [fwd] runs
       over nodes before [n], [bwd] over nodes after it, and the two
       meet at [n]'s place. *)
    let fwd = ref c.heads.(b) and bwd = ref tl in
    while before c !fwd n && before c n c.prev.(!bwd) do
      fwd := c.next.(!fwd);
      bwd := c.prev.(!bwd);
      c.work <- c.work + 1
    done;
    let nx = if before c !fwd n then !bwd else !fwd in
    let pv = c.prev.(nx) in
    c.next.(n) <- nx;
    c.prev.(n) <- pv;
    c.prev.(nx) <- n;
    if pv = nil then c.heads.(b) <- n else c.next.(pv) <- n
  end;
  c.in_ring <- c.in_ring + 1

(* Ring or overflow, by the node's bucket. *)
let place c n =
  let time = Float.Array.get c.times n in
  let k = bucket c time in
  if k - c.cur <= c.mask then link c k n
  else begin
    c.work <- c.work + 1;
    Rina_util.Heap.push_with_seq c.overflow ~key:time ~seq:c.seqs.(n) n;
    if k < c.overflow_bucket then c.overflow_bucket <- k
  end

(* Move every overflow node inside the ring's horizon into the ring. *)
let migrate c =
  let continue = ref true in
  while !continue do
    if Rina_util.Heap.is_empty c.overflow then begin
      c.overflow_bucket <- none;
      continue := false
    end
    else begin
      let n = Rina_util.Heap.top_value c.overflow in
      let k = bucket c (Float.Array.get c.times n) in
      if k - c.cur <= c.mask then begin
        Rina_util.Heap.drop_min c.overflow;
        link c k n
      end
      else begin
        c.overflow_bucket <- k;
        continue := false
      end
    end
  done

(* The lowest bucket index among the ring's nodes (each bucket's head is
   its earliest node). *)
let lowest_bucket c =
  let lo = ref none in
  for b = 0 to c.mask do
    let n = c.heads.(b) in
    if n <> nil then lo := Int.min !lo (bucket c (Float.Array.get c.times n))
  done;
  !lo

(* The node of the earliest event, left at the head of bucket [cur], or
   [nil] when the calendar is empty.  The scan is bounded by one lap of
   the ring; past it, [cur] jumps to the lowest head. *)
let rec min_node c =
  if c.overflow_bucket <= c.cur then migrate c;
  if c.in_ring = 0 then
    if c.overflow_bucket = none then nil
    else begin
      c.cur <- c.overflow_bucket;
      min_node c
    end
  else scan c c.mask

and scan c lap =
  let n = c.heads.(c.cur land c.mask) in
  if n <> nil && bucket c (Float.Array.get c.times n) <= c.cur then n
  else if lap = 0 then begin
    c.cur <- lowest_bucket c;
    min_node c
  end
  else begin
    c.cur <- c.cur + 1;
    c.work <- c.work + 1;
    if c.overflow_bucket <= c.cur then min_node c else scan c (lap - 1)
  end

(* Re-size the ring: a power-of-two bucket count at least the number of
   pending events, and a width of three times the mean gap between the
   events popped since the last resize (how far the earliest pending
   time advanced, over the pops that advanced it).  That is Brown's
   width, three times the separation of the events due next, measured
   over a whole epoch rather than the next few events: here most events
   come in bursts at one instant and half are link arrivals a
   millisecond out, so a sample of the next few measures one burst.  At
   that width about three events fire per bucket, and by Little's law
   the ring spans about three mean scheduling delays. *)
let resize c =
  let lo =
    ref
      (if Rina_util.Heap.is_empty c.overflow then infinity
       else Rina_util.Heap.top_key c.overflow)
  in
  (* Unlink the ring's nodes into one chain, bucket by bucket from
     [cur], to place them again under the new geometry. *)
  let chain = ref nil and last = ref nil in
  for i = 0 to c.mask do
    let b = (c.cur + i) land c.mask in
    let hd = c.heads.(b) in
    if hd <> nil then begin
      let time = Float.Array.get c.times hd in
      if time < !lo then lo := time;
      if !last = nil then chain := hd else c.next.(!last) <- hd;
      last := c.tails.(b)
    end
  done;
  let elapsed = !lo -. c.epoch_start in
  if c.epoch_pops >= min_pops && elapsed > 0. then begin
    let inv = float_of_int c.epoch_pops /. (3. *. elapsed) in
    if Float.is_finite inv && inv > 0. then c.inv_width <- inv
  end;
  c.epoch_start <- !lo;
  c.epoch_pops <- 0;
  c.work <- 0;
  let nb = ref min_buckets in
  while !nb < c.size do
    nb := 2 * !nb
  done;
  let nb = !nb in
  (* The bucket arrays only grow: the count swings by more than a
     factor of two in steady state, and arrays this large go straight
     to the major heap. *)
  if nb > Array.length c.heads then begin
    c.heads <- Array.make nb nil;
    c.tails <- Array.make nb nil
  end
  else begin
    Array.fill c.heads 0 nb nil;
    Array.fill c.tails 0 nb nil
  end;
  c.mask <- nb - 1;
  c.cur <- bucket c !lo;
  c.in_ring <- 0;
  c.overflow_bucket <-
    (if Rina_util.Heap.is_empty c.overflow then none
     else bucket c (Rina_util.Heap.top_key c.overflow));
  let n = ref !chain in
  while !n <> nil do
    let nx = c.next.(!n) in
    place c !n;
    n := nx
  done

let[@inline] push c time seq h =
  if c.free = nil then grow_pool c;
  let n = c.free in
  c.free <- c.next.(n);
  Float.Array.set c.times n time;
  c.seqs.(n) <- seq;
  c.hs.(n) <- h;
  place c n;
  c.size <- c.size + 1;
  if c.size > 2 * (c.mask + 1) then resize c

(* Unlink [n], the head of bucket [cur]. *)
let drop c n =
  let time = Float.Array.get c.times n in
  let b = c.cur land c.mask in
  let nx = c.next.(n) in
  c.heads.(b) <- nx;
  if nx = nil then c.tails.(b) <- nil else c.prev.(nx) <- nil;
  release c n;
  c.in_ring <- c.in_ring - 1;
  c.size <- c.size - 1;
  c.epoch_pops <- c.epoch_pops + 1;
  (* Also re-size when the width has gone stale: when the steps spent
     since the last resize outnumber four per pop plus a lap of the
     ring, which is what a resize costs, and time has moved on, so that
     there is a new width to measure.  (A burst at one instant, such as
     every member's hello tick, costs steps at any width.) *)
  if
    c.size < (c.mask + 1) / 8
    || (c.work > c.mask + (4 * c.epoch_pops) && time > c.epoch_start)
  then resize c

let wheel_slots = 256

let wheel_mask = wheel_slots - 1

(* 50 ms buckets x 256 slots = a 12.8 s horizon: covers RTOs (max 8 s),
   keepalives and hellos (1 s).  Rarer long timers fall back to the
   calendar; granularity affects only bucketing, never firing times. *)
let wheel_granularity = 0.05

let slot_of time = int_of_float (time /. wheel_granularity)

let create () =
  let rec t =
    {
      clock = 0.;
      cal = calendar ();
      next_seq = 0;
      executed = 0;
      cancelled_resident = 0;
      wheel =
        Array.init wheel_slots (fun _ ->
            { wtimes = Float.Array.create 0; wseqs = [||]; whandles = [||]; wlen = 0 });
      wheel_count = 0;
      wheel_min_slot = 0;
      self;
      flight = Rina_util.Flight.create ();
      checks = Rina_util.Invariant.create ();
    }
  and self = Some t in
  Rina_util.Flight.set_clock t.flight (fun () -> t.clock);
  t

let now t = t.clock

let flight t = t.flight

let checks t = t.checks

let executed t = t.executed

let add_wheel t s time h =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let sl = t.wheel.(s land wheel_mask) in
  let cap = Array.length sl.whandles in
  if sl.wlen = cap then begin
    let ncap = if cap = 0 then 8 else 2 * cap in
    let wtimes = Float.Array.create ncap in
    Float.Array.blit sl.wtimes 0 wtimes 0 sl.wlen;
    let wseqs = Array.make ncap 0 in
    Array.blit sl.wseqs 0 wseqs 0 sl.wlen;
    let whandles = Array.make ncap vacant in
    Array.blit sl.whandles 0 whandles 0 sl.wlen;
    sl.wtimes <- wtimes;
    sl.wseqs <- wseqs;
    sl.whandles <- whandles
  end;
  Float.Array.set sl.wtimes sl.wlen time;
  sl.wseqs.(sl.wlen) <- seq;
  sl.whandles.(sl.wlen) <- h;
  sl.wlen <- sl.wlen + 1;
  if t.wheel_count = 0 || s < t.wheel_min_slot then t.wheel_min_slot <- s;
  t.wheel_count <- t.wheel_count + 1

(* Inlined into [schedule] and [schedule_at], so a computed time is
   stored without being boxed. *)
let[@inline] enqueue lane t time f =
  (* [<=] also maps -0. onto the clock's +0., so a queued time equals
     the clock only when the two are the same float. *)
  let time = if time <= t.clock then t.clock else time in
  let h = { cancelled = false; resident = true; action = f; owner = t.self } in
  (match lane with
  | Timer when time > t.clock
               && time /. wheel_granularity
                  < float_of_int (slot_of t.clock + wheel_slots) ->
    add_wheel t (slot_of time) time h
  | Default | Timer ->
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    push t.cal time seq h);
  if Rina_util.Flight.on t.flight then
    Rina_util.Flight.emit_to t.flight ~component:"engine" Rina_util.Flight.Timer_set;
  h

(* A NaN would compare false against every time and corrupt the
   order. *)
let schedule_at ?(lane = Default) t ~time f =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  enqueue lane t time f

let schedule ?(lane = Default) t ~delay f =
  if Float.is_nan delay then invalid_arg "Engine.schedule: NaN delay";
  let delay = if delay < 0. then 0. else delay in
  enqueue lane t (t.clock +. delay) f

let pending t = t.cal.size + t.wheel_count

(* Drop cancelled entries wholesale: unlink them from the ring's
   buckets and filter the overflow (seq numbers are kept, so FIFO ties
   are unchanged), and purge the wheel slots. *)
let reap t =
  let c = t.cal in
  for b = 0 to c.mask do
    let kept = ref nil and n = ref c.heads.(b) in
    c.heads.(b) <- nil;
    while !n <> nil do
      let nx = c.next.(!n) in
      let h = c.hs.(!n) in
      if h.cancelled then begin
        h.resident <- false;
        release c !n;
        c.in_ring <- c.in_ring - 1;
        c.size <- c.size - 1
      end
      else begin
        c.prev.(!n) <- !kept;
        if !kept = nil then c.heads.(b) <- !n else c.next.(!kept) <- !n;
        kept := !n
      end;
      n := nx
    done;
    if !kept <> nil then c.next.(!kept) <- nil;
    c.tails.(b) <- !kept
  done;
  ignore
    (Rina_util.Heap.compact c.overflow ~keep:(fun n ->
         let h = c.hs.(n) in
         if h.cancelled then begin
           h.resident <- false;
           release c n;
           c.size <- c.size - 1;
           false
         end
         else true));
  c.overflow_bucket <-
    (if Rina_util.Heap.is_empty c.overflow then none
     else bucket c (Rina_util.Heap.top_key c.overflow));
  if t.wheel_count > 0 then
    for idx = 0 to wheel_slots - 1 do
      let sl = t.wheel.(idx) in
      if sl.wlen > 0 then begin
        let kept = ref 0 in
        for i = 0 to sl.wlen - 1 do
          let h = sl.whandles.(i) in
          if h.cancelled then begin
            h.resident <- false;
            t.wheel_count <- t.wheel_count - 1
          end
          else begin
            if !kept <> i then begin
              Float.Array.set sl.wtimes !kept (Float.Array.get sl.wtimes i);
              sl.wseqs.(!kept) <- sl.wseqs.(i);
              sl.whandles.(!kept) <- sl.whandles.(i)
            end;
            incr kept
          end
        done;
        Array.fill sl.whandles !kept (sl.wlen - !kept) vacant;
        sl.wlen <- !kept
      end
    done;
  t.cancelled_resident <- 0

let cancel h =
  h.action <- ignore;
  match h.owner with
  | Some t when h.resident && not h.cancelled ->
    h.cancelled <- true;
    t.cancelled_resident <- t.cancelled_resident + 1;
    if t.cancelled_resident >= 64 && 2 * t.cancelled_resident > pending t then
      reap t
  | Some _ | None -> h.cancelled <- true

(* Move one slot's entries into the calendar with their reserved
   sequence numbers; cancelled ones die here without ever entering it. *)
let flush_slot t s =
  let sl = t.wheel.(s land wheel_mask) in
  for i = 0 to sl.wlen - 1 do
    let h = sl.whandles.(i) in
    t.wheel_count <- t.wheel_count - 1;
    if h.cancelled then begin
      h.resident <- false;
      t.cancelled_resident <- t.cancelled_resident - 1
    end
    else push t.cal (Float.Array.get sl.wtimes i) sl.wseqs.(i) h
  done;
  Array.fill sl.whandles 0 sl.wlen vacant;
  sl.wlen <- 0

(* Advance to the first nonempty slot (cycling the index space is fine:
   a stale [wheel_min_slot] can only understate a slot's start time,
   which flushes entries early — harmless for ordering, since they are
   pushed with their true key and reserved seq). *)
let first_nonempty_slot t =
  let s = ref t.wheel_min_slot in
  while t.wheel.(!s land wheel_mask).wlen = 0 do
    incr s
  done;
  t.wheel_min_slot <- !s;
  !s

(* The next event's node.  Before any pop, every slot whose start is <=
   the calendar's next time must already be in the calendar, or the
   order could invert. *)
let rec next_due t =
  let n = min_node t.cal in
  if t.wheel_count > 0 then begin
    let s = first_nonempty_slot t in
    if n = nil || float_of_int s *. wheel_granularity <= Float.Array.get t.cal.times n
    then begin
      flush_slot t s;
      next_due t
    end
    else n
  end
  else n

(* Flush every slot starting at or before [limit] — used by [run
   ~until] so the stop-time peek sees wheel events too. *)
let rec flush_until t limit =
  if t.wheel_count > 0 then begin
    let s = first_nonempty_slot t in
    if float_of_int s *. wheel_granularity <= limit then begin
      flush_slot t s;
      flush_until t limit
    end
  end

(* Pop node [n], the calendar's minimum, and run its event. *)
let fire t n =
  let c = t.cal in
  let time = Float.Array.get c.times n in
  let h = c.hs.(n) in
  drop c n;
  if Rina_util.Invariant.enabled t.checks then begin
    if time < t.clock then
      Rina_util.Invariant.record t.checks ~code:"SAN_CLOCK"
        (Printf.sprintf "event at t=%g popped with clock already at %g" time
           t.clock);
    let m = min_node c in
    if m <> nil && Float.Array.get c.times m < time then
      Rina_util.Invariant.record t.checks ~code:"SAN_HEAP"
        (Printf.sprintf "event order broken: popped t=%g but t=%g still queued"
           time (Float.Array.get c.times m))
  end;
  (* Queued times are never -0., so equal means the same float, and an
     event at the current time needs no new boxed clock. *)
  if time <> t.clock then t.clock <- time;
  t.executed <- t.executed + 1;
  h.resident <- false;
  if h.cancelled then t.cancelled_resident <- t.cancelled_resident - 1
  else begin
    if Rina_util.Flight.on t.flight then
      Rina_util.Flight.emit_to t.flight ~component:"engine"
        Rina_util.Flight.Timer_fired;
    h.action ()
  end

let step t =
  let n = next_due t in
  if n = nil then false
  else begin
    fire t n;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some stop ->
    if Float.is_nan stop then invalid_arg "Engine.run: NaN until";
    let continue = ref true in
    while !continue do
      flush_until t stop;
      let n = min_node t.cal in
      (* [next_due] would flush nothing more: every slot left starts
         after [stop]. *)
      if n <> nil && Float.Array.get t.cal.times n <= stop then fire t n
      else begin
        t.clock <- Float.max t.clock stop;
        continue := false
      end
    done
