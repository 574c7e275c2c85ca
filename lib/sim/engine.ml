(* The event loop is the hottest code in the repository, so it avoids
   boxing on every path: the heap is read through
   top_key/top_value/drop_min (no option/tuple per event), cancelled
   timers are compacted lazily instead of being popped one by one, and
   periodic timer classes (RTOs, keepalives, hellos — timers that are
   usually cancelled or rescheduled) can opt into a coarse timer wheel
   that parks them outside the heap entirely.

   Determinism contract: events fire in (time, insertion-seq) order.
   Wheel entries reserve their heap sequence number at schedule time
   and are flushed into the heap before any pop of an equal-or-later
   key, so the global order is exactly what a heap-only engine would
   produce; the wheel only changes where cancelled entries die (in
   bulk, at slot flush or compaction, instead of one pop each).

   A handle is reachable from the engine only while it is resident:
   every heap or wheel slot it vacates is overwritten with [vacant], so
   a fired event, and whatever its closure holds (often a frame), can be
   collected at once.  A cancelled event may stay resident until its
   slot is flushed or reaped, so [cancel] swaps its closure for [ignore]
   on the spot. *)

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

and t = {
  mutable clock : float;
  queue : handle Rina_util.Heap.t;
  mutable executed : int;
  mutable cancelled_resident : int;
  wheel : wslot array;
  mutable wheel_count : int;
  mutable wheel_min_slot : int;
  self : t option;  (* the [owner] of this engine's handles *)
}

let vacant = { cancelled = true; resident = false; action = ignore; owner = None }

let wheel_slots = 256

let wheel_mask = wheel_slots - 1

(* 50 ms buckets x 256 slots = a 12.8 s horizon: covers RTOs (max 8 s),
   keepalives and hellos (1 s).  Rarer long timers fall back to the
   heap; granularity affects only bucketing, never firing times. *)
let wheel_granularity = 0.05

let slot_of time = int_of_float (time /. wheel_granularity)

let create () =
  let rec t =
    {
      clock = 0.;
      queue = Rina_util.Heap.create ~filler:vacant;
      executed = 0;
      cancelled_resident = 0;
      wheel =
        Array.init wheel_slots (fun _ ->
            { wtimes = Float.Array.create 0; wseqs = [||]; whandles = [||]; wlen = 0 });
      wheel_count = 0;
      wheel_min_slot = 0;
      self;
    }
  and self = Some t in
  t

let now t = t.clock

let executed t = t.executed

let add_wheel t s time h =
  let seq = Rina_util.Heap.reserve_seq t.queue in
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

let schedule_at ?(lane = Default) t ~time f =
  let time = if time < t.clock then t.clock else time in
  let h = { cancelled = false; resident = true; action = f; owner = t.self } in
  (match lane with
  | Timer when time > t.clock ->
    let s = slot_of time in
    if s - slot_of t.clock < wheel_slots then add_wheel t s time h
    else Rina_util.Heap.push t.queue time h
  | Default | Timer -> Rina_util.Heap.push t.queue time h);
  let r = Rina_util.Flight.cur () in
  if Rina_util.Flight.on r then
    Rina_util.Flight.emit_to r ~component:"engine" Rina_util.Flight.Timer_set;
  h

let schedule ?lane t ~delay f =
  let delay = if delay < 0. then 0. else delay in
  schedule_at ?lane t ~time:(t.clock +. delay) f

let pending t = Rina_util.Heap.length t.queue + t.wheel_count

(* Drop cancelled entries wholesale: filter the heap in place (O(n),
   seq numbers preserved so FIFO ties are unchanged) and purge the
   wheel slots. *)
let reap t =
  ignore
    (Rina_util.Heap.compact t.queue ~keep:(fun h ->
         if h.cancelled then begin
           h.resident <- false;
           false
         end
         else true));
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
    if
      t.cancelled_resident >= 64
      && 2 * t.cancelled_resident
         > Rina_util.Heap.length t.queue + t.wheel_count
    then reap t
  | Some _ | None -> h.cancelled <- true

(* Move one slot's entries into the heap with their reserved sequence
   numbers; cancelled ones die here without ever touching the heap. *)
let flush_slot t s =
  let sl = t.wheel.(s land wheel_mask) in
  for i = 0 to sl.wlen - 1 do
    let h = sl.whandles.(i) in
    t.wheel_count <- t.wheel_count - 1;
    if h.cancelled then begin
      h.resident <- false;
      t.cancelled_resident <- t.cancelled_resident - 1
    end
    else
      Rina_util.Heap.push_with_seq t.queue
        ~key:(Float.Array.get sl.wtimes i)
        ~seq:sl.wseqs.(i) h
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

(* Before any pop: every slot whose start is <= the heap's next key
   must already be in the heap, or ordering could invert. *)
let rec flush_due t =
  if t.wheel_count > 0 then begin
    let s = first_nonempty_slot t in
    let start = float_of_int s *. wheel_granularity in
    if
      Rina_util.Heap.is_empty t.queue
      || start <= Rina_util.Heap.top_key t.queue
    then begin
      flush_slot t s;
      flush_due t
    end
  end

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

let step t =
  flush_due t;
  if Rina_util.Heap.is_empty t.queue then false
  else begin
    let time = Rina_util.Heap.top_key t.queue in
    let h = Rina_util.Heap.top_value t.queue in
    Rina_util.Heap.drop_min t.queue;
    if Rina_util.Invariant.enabled () then begin
      if time < t.clock then
        Rina_util.Invariant.record ~code:"SAN_CLOCK"
          (Printf.sprintf "event at t=%g popped with clock already at %g" time
             t.clock);
      if
        (not (Rina_util.Heap.is_empty t.queue))
        && Rina_util.Heap.top_key t.queue < time
      then
        Rina_util.Invariant.record ~code:"SAN_HEAP"
          (Printf.sprintf "heap order broken: popped t=%g but t=%g still queued"
             time
             (Rina_util.Heap.top_key t.queue))
    end;
    t.clock <- time;
    t.executed <- t.executed + 1;
    h.resident <- false;
    if h.cancelled then t.cancelled_resident <- t.cancelled_resident - 1
    else begin
      let r = Rina_util.Flight.cur () in
      if Rina_util.Flight.on r then
        Rina_util.Flight.emit_to r ~component:"engine"
          Rina_util.Flight.Timer_fired;
      h.action ()
    end;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some stop ->
    let continue = ref true in
    while !continue do
      flush_until t stop;
      if
        (not (Rina_util.Heap.is_empty t.queue))
        && Rina_util.Heap.top_key t.queue <= stop
      then ignore (step t)
      else begin
        t.clock <- Float.max t.clock stop;
        continue := false
      end
    done
