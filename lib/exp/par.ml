(* Domain-parallel trial fan-out.

   Trials are embarrassingly parallel: each one builds its own engine,
   PRNG, metrics registries and (optionally) flight-recorder buffer, so
   the only sharing between domains is the immutable work list and the
   result slots.  A fixed pool of [domains] workers pulls trial indexes
   from an atomic counter (work stealing keeps the pool busy when trial
   durations are uneven) and writes each result into its own slot;
   results are then read back in input order, so the caller sees output
   identical to a sequential [Array.map] — byte-identical JSON, merged
   metrics in seed order — no matter how the trials interleaved.

   The flight recorder and the sanitizer context belong to the trial's
   own engine ([Engine.flight], [Engine.checks]), so a trial may attach
   tracing or enable checking inside a worker without touching any
   other trial's. *)

type 'a outcome = Value of 'a | Raised of exn * Printexc.raw_backtrace

let map ~domains f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        slots.(i) <-
          Some
            (try Value (f items.(i))
             with e -> Raised (e, Printexc.get_raw_backtrace ()));
        worker ()
      end
    in
    let extra = min (max 0 (domains - 1)) (n - 1) in
    let pool = List.init extra (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join pool;
    (* Joining every worker happens-before these reads, so the slots
       are published; surface the first failure in input order. *)
    Array.map
      (function
        | Some (Value v) -> v
        | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      slots
  end

(* Every trial records into its own registry, and the shards are merged
   in *input* order after the join, so the merged registry is
   byte-identical whether the trials ran on one domain or eight (merge
   is exact bucket addition, and the order is fixed by the item list,
   not the schedule). *)
let map_telemetry ~domains f items =
  let module Telemetry = Rina_util.Telemetry in
  let merged = Telemetry.create () in
  let pairs =
    map ~domains
      (fun item ->
        let tele = Telemetry.create () in
        (f tele item, tele))
      items
  in
  let results =
    Array.map
      (fun (r, tele) ->
        Telemetry.merge_into ~into:merged tele;
        r)
      pairs
  in
  (results, merged)
