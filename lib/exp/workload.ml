let header = 16  (* f64 timestamp + u32 seq + u32 magic *)

let magic = 0x53445500  (* "SDU" *)

let stamp ~now ~seq ~size =
  let size = max header size in
  let b = Bytes.make size 'p' in
  Bytes.set_int64_be b 0 (Int64.bits_of_float now);
  Bytes.set_int32_be b 8 (Int32.of_int seq);
  Bytes.set_int32_be b 12 (Int32.of_int magic);
  b

let read_stamp b =
  if Bytes.length b < header then None
  else if Int32.to_int (Bytes.get_int32_be b 12) land 0xFFFFFFFF <> magic then None
  else
    Some
      ( Int64.float_of_bits (Bytes.get_int64_be b 0),
        Int32.to_int (Bytes.get_int32_be b 8) )

(* Sealed variant: a CRC-32 trailer over the whole SDU lets the
   receiver detect payload corruption that escaped every lower-layer
   integrity check — the measurement behind the "corrupt-escaped
   deliveries" column of the adversarial benchmark. *)

let seal_overhead = 4

let stamp_sealed ~now ~seq ~size =
  let b = stamp ~now ~seq ~size:(max size (header + seal_overhead)) in
  let body = Bytes.length b - seal_overhead in
  let crc = Rina_core.Sdu_protection.crc32_sub b ~pos:0 ~len:body in
  Bytes.set_int32_be b body (Int32.of_int crc);
  b

type sealed = Sealed_ok of float * int | Sealed_corrupt

let read_sealed b =
  let len = Bytes.length b in
  if len < header + seal_overhead then Sealed_corrupt
  else
    let body = len - seal_overhead in
    let stored = Int32.to_int (Bytes.get_int32_be b body) land 0xFFFFFFFF in
    if Rina_core.Sdu_protection.crc32_sub b ~pos:0 ~len:body <> stored then
      Sealed_corrupt
    else
      match read_stamp b with
      | Some (sent, seq) -> Sealed_ok (sent, seq)
      | None -> Sealed_corrupt

(* ---------- flow-aware stamps + per-flow FCT bookkeeping ----------

   The plain (sealed) stamp assumes ONE long-lived stream per sink: a
   single global sequence space, loss read off [seen_max_seq].  Under
   short-flow churn (incast, flash crowds) thousands of flows share a
   sink and their sequence spaces collide, so flow-aware stamps carry
   an explicit flow id and a FIN marker on the last SDU, and the [fct]
   registry keeps per-flow open times to turn FIN arrivals into flow
   completion times. *)

let flow_header = 20  (* f64 timestamp + u32 flow + u32 seq/fin + u32 magic *)

let flow_magic = 0x464C5700  (* "FLW" *)

let fin_bit = 0x80000000

type flow_stamp = { fs_sent : float; fs_flow : int; fs_seq : int; fs_fin : bool }

let stamp_flow ~now ~flow ~seq ~fin ~size =
  let size = max size (flow_header + seal_overhead) in
  let b = Bytes.make size 'p' in
  Bytes.set_int64_be b 0 (Int64.bits_of_float now);
  Bytes.set_int32_be b 8 (Int32.of_int flow);
  Bytes.set_int32_be b 12 (Int32.of_int (seq lor if fin then fin_bit else 0));
  Bytes.set_int32_be b 16 (Int32.of_int flow_magic);
  let body = size - seal_overhead in
  let crc = Rina_core.Sdu_protection.crc32_sub b ~pos:0 ~len:body in
  Bytes.set_int32_be b body (Int32.of_int crc);
  b

let read_flow b =
  let len = Bytes.length b in
  if len < flow_header + seal_overhead then None
  else if Int32.to_int (Bytes.get_int32_be b 16) land 0xFFFFFFFF <> flow_magic
  then None
  else
    let body = len - seal_overhead in
    let stored = Int32.to_int (Bytes.get_int32_be b body) land 0xFFFFFFFF in
    if Rina_core.Sdu_protection.crc32_sub b ~pos:0 ~len:body <> stored then None
    else
      let sf = Int32.to_int (Bytes.get_int32_be b 12) land 0xFFFFFFFF in
      Some
        {
          fs_sent = Int64.float_of_bits (Bytes.get_int64_be b 0);
          fs_flow = Int32.to_int (Bytes.get_int32_be b 8) land 0xFFFFFFFF;
          fs_seq = sf land lnot fin_bit;
          fs_fin = sf land fin_bit <> 0;
        }

type fct = {
  durations : Rina_util.Stats.t;
  latencies : Rina_util.Stats.t;
  mutable started : int;
  mutable completed : int;
  mutable fct_sdus : int;
  mutable fct_bytes : int;
  mutable fct_corrupt : int;
  opens : (int, float) Hashtbl.t;
}

let fct () =
  {
    durations = Rina_util.Stats.create ();
    latencies = Rina_util.Stats.create ();
    started = 0;
    completed = 0;
    fct_sdus = 0;
    fct_bytes = 0;
    fct_corrupt = 0;
    opens = Hashtbl.create 256;
  }

let flow_open reg ~flow ~now =
  if not (Hashtbl.mem reg.opens flow) then begin
    Hashtbl.replace reg.opens flow now;
    reg.started <- reg.started + 1
  end

let on_flow_sdu reg ~now sdu =
  reg.fct_sdus <- reg.fct_sdus + 1;
  reg.fct_bytes <- reg.fct_bytes + Bytes.length sdu;
  match read_flow sdu with
  | None -> reg.fct_corrupt <- reg.fct_corrupt + 1
  | Some fs ->
    Rina_util.Stats.add reg.latencies (now -. fs.fs_sent);
    if fs.fs_fin then (
      match Hashtbl.find_opt reg.opens fs.fs_flow with
      | Some opened ->
        Hashtbl.remove reg.opens fs.fs_flow;
        reg.completed <- reg.completed + 1;
        Rina_util.Stats.add reg.durations (now -. opened)
      | None -> ())

let unfinished reg =
  List.sort compare (Hashtbl.fold (fun flow _ acc -> flow :: acc) reg.opens [])

let fct_goodput reg ~t0 ~t1 =
  if t1 <= t0 then 0. else float_of_int (8 * reg.fct_bytes) /. (t1 -. t0)

let flow_bulk reg ~send ~now ~flow ~size ~sdu =
  if sdu <= 0 then invalid_arg "Workload.flow_bulk: sdu must be positive";
  flow_open reg ~flow ~now;
  let payload = max 1 (sdu - flow_header - seal_overhead) in
  let count = max 1 ((size + payload - 1) / payload) in
  for seq = 0 to count - 1 do
    send (stamp_flow ~now ~flow ~seq ~fin:(seq = count - 1) ~size:sdu)
  done

let flow_size rng ~alpha ~xmin ~cap =
  min cap (int_of_float (Rina_util.Prng.pareto rng ~alpha ~xmin:(float_of_int xmin)))

let poisson_arrivals engine rng ~rate ~until f =
  if rate <= 0. then invalid_arg "Workload.poisson_arrivals: rate must be positive";
  let idx = ref 0 in
  let rec next () =
    let gap = Rina_util.Prng.exponential rng rate in
    ignore
      (Rina_sim.Engine.schedule engine ~delay:gap (fun () ->
           if Rina_sim.Engine.now engine < until then begin
             let i = !idx in
             incr idx;
             f i;
             next ()
           end))
  in
  next ()

type sink = {
  received : Rina_util.Stats.t;
  mutable count : int;
  mutable bytes : int;
  mutable last_arrival : float;
  mutable seen_max_seq : int;
}

let sink () =
  {
    received = Rina_util.Stats.create ();
    count = 0;
    bytes = 0;
    last_arrival = 0.;
    seen_max_seq = -1;
  }

let on_sdu s ~now sdu =
  s.count <- s.count + 1;
  s.bytes <- s.bytes + Bytes.length sdu;
  s.last_arrival <- now;
  match read_stamp sdu with
  | Some (sent, seq) ->
    Rina_util.Stats.add s.received (now -. sent);
    if seq > s.seen_max_seq then s.seen_max_seq <- seq
  | None -> ()

let goodput s ~t0 ~t1 =
  if t1 <= t0 then 0. else float_of_int (8 * s.bytes) /. (t1 -. t0)

let bulk ~send ~now ~count ~size =
  for seq = 0 to count - 1 do
    send (stamp ~now ~seq ~size)
  done

let cbr engine ~send ~rate ~size ~until () =
  let interval = float_of_int (8 * size) /. rate in
  let seq = ref 0 in
  let rec tick () =
    let now = Rina_sim.Engine.now engine in
    if now < until then begin
      send (stamp ~now ~seq:!seq ~size);
      incr seq;
      ignore (Rina_sim.Engine.schedule engine ~delay:interval tick)
    end
  in
  tick ()

let poisson_on_off engine rng ~send ~peak_rate ~mean_on ~mean_off ~size ~until () =
  let interval = float_of_int (8 * size) /. peak_rate in
  let seq = ref 0 in
  let rec on_phase stop_at () =
    let now = Rina_sim.Engine.now engine in
    if now >= until then ()
    else if now >= stop_at then begin
      let off = Rina_util.Prng.exponential rng (1. /. mean_off) in
      ignore (Rina_sim.Engine.schedule engine ~delay:off (start_on ()))
    end
    else begin
      send (stamp ~now ~seq:!seq ~size);
      incr seq;
      ignore (Rina_sim.Engine.schedule engine ~delay:interval (on_phase stop_at))
    end
  and start_on () () =
    let now = Rina_sim.Engine.now engine in
    if now < until then begin
      let on = Rina_util.Prng.exponential rng (1. /. mean_on) in
      on_phase (now +. on) ()
    end
  in
  start_on () ()
