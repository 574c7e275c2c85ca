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

   Per-run recorder/sanitizer state lives in [Domain.DLS]
   ({!Rina_util.Flight}, {!Rina_util.Invariant}), so a trial may attach
   tracing inside a worker without seeing another domain's buffer.

   The fan-out is annotated for {!Rina_util.Race}: the spawn/join
   structure, the atomic work counter (a synchronisation object — its
   fetch-and-add is an acquire/release pair) and one cell per result
   slot.  All no-ops unless the sanitizer is armed; with it armed, a
   run of [map] must come back race-free — each slot is written by
   exactly one worker and read by the parent only after every join. *)

module Race = Rina_util.Race

(* RINA_DOMAINS pins the worker count (CI and bench runs need a stable
   pool regardless of runner shape); anything unparsable falls back to
   the hardware recommendation.  Both paths clamp to 1..8. *)
let default_domains () =
  let clamp n = if n < 1 then 1 else if n > 8 then 8 else n in
  match Sys.getenv_opt "RINA_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> clamp n
    | None -> clamp (Domain.recommended_domain_count ()))
  | None -> clamp (Domain.recommended_domain_count ())

type 'a outcome = Value of 'a | Raised of exn * Printexc.raw_backtrace

let map ?domains f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let armed = Race.armed () in
    let counter = if armed then Some (Race.sync "Par.next") else None in
    let cells =
      if armed then
        Some (Array.init n (fun i -> Race.cell (Printf.sprintf "Par.slots[%d]" i)))
      else None
    in
    let worker handle () =
      (match handle with Some h -> Race.child_begin h | None -> ());
      let rec loop () =
        (* The fetch-and-add is both halves of a synchronisation: it
           reads the last increment (acquire) and publishes its own
           (release). *)
        (match counter with
         | Some s ->
           Race.acquire s;
           Race.release s
         | None -> ());
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match cells with Some cs -> Race.write cs.(i) | None -> ());
          (slots.(i) <-
            Some
              (try Value (f items.(i))
               with e -> Raised (e, Printexc.get_raw_backtrace ())));
          loop ()
        end
      in
      loop ();
      match handle with Some h -> Race.child_end h | None -> ()
    in
    let wanted = match domains with Some d -> d | None -> default_domains () in
    let extra = min (max 0 (wanted - 1)) (n - 1) in
    let pool =
      List.init extra (fun _ ->
          let h = if armed then Some (Race.fork ()) else None in
          (h, Domain.spawn (worker h)))
    in
    worker None ();
    List.iter
      (fun (h, d) ->
        Domain.join d;
        match h with Some h -> Race.join h | None -> ())
      pool;
    (* Joining every worker happens-before these reads, so the slots
       are published; surface the first failure in input order. *)
    Array.mapi
      (fun i slot ->
        (match cells with Some cs -> Race.read cs.(i) | None -> ());
        match slot with
        | Some (Value v) -> v
        | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      slots
  end

let run_trials ?domains ~seeds f =
  Array.to_list (map ?domains (fun seed -> f ~seed) (Array.of_list seeds))

(* Telemetry-sharded fan-out: every trial gets a private registry as
   this domain's [Telemetry.current] — the per-shard stats pipeline —
   and the shards are merged in *input* order after the join, so the
   merged registry is byte-identical whether the trials ran on one
   domain or eight (merge is exact bucket addition, and the order is
   fixed by the item list, not the schedule).

   Race annotations mirror the result slots: one cell per telemetry
   shard, written by the owning worker after the trial finishes and
   read on the merge path, so an armed sanitizer proves the shard
   hand-off is happens-before clean. *)
let map_telemetry ?domains ?series_bucket f items =
  let module Telemetry = Rina_util.Telemetry in
  let n = Array.length items in
  let merged = Telemetry.create ?series_bucket () in
  if n = 0 then ([||], merged)
  else begin
    let armed = Race.armed () in
    let shard_cells =
      if armed then
        Some
          (Array.init n (fun i ->
               Race.cell (Printf.sprintf "Par.telemetry[%d]" i)))
      else None
    in
    let pairs =
      map ?domains
        (fun i ->
          let tele = Telemetry.create ?series_bucket () in
          Telemetry.set_current (Some tele);
          let finish () = Telemetry.set_current None in
          let r =
            try f items.(i)
            with e ->
              finish ();
              raise e
          in
          finish ();
          (match shard_cells with Some cs -> Race.write cs.(i) | None -> ());
          (r, tele))
        (Array.init n Fun.id)
    in
    let results =
      Array.mapi
        (fun i (r, tele) ->
          (match shard_cells with Some cs -> Race.read cs.(i) | None -> ());
          Telemetry.merge_into ~into:merged tele;
          r)
        pairs
    in
    (results, merged)
  end
