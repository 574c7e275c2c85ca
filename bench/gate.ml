(* What the experiments share with CI: the RINA_BENCH_CHECK switch, the
   one gate-line format and exit path, the artifact writer, and the
   per-fault row the R experiments all record. *)

module Json = Rina_util.Json

let checking () = Sys.getenv_opt "RINA_BENCH_CHECK" <> None

(* A run that could not measure anything has nothing to gate, so it
   fails the command whether or not checking is on. *)
let abort msg =
  prerr_endline msg;
  exit 1

(* Under RINA_BENCH_CHECK, print one line per claim
     <gate> gate: <claim, padded to 32> ok|VIOLATED[ (<detail>)]
   and exit 1 with [failure] on stderr if any claim failed.  An empty
   detail prints nothing. *)
let check_detailed gate failure claims =
  if checking () then begin
    List.iter
      (fun (name, ok, detail) ->
        Printf.printf "%s gate: %-32s %s%s\n" gate name
          (if ok then "ok" else "VIOLATED")
          (if detail = "" then "" else " (" ^ detail ^ ")"))
      claims;
    if List.exists (fun (_, ok, _) -> not ok) claims then abort failure
  end

let check gate failure claims =
  check_detailed gate failure (List.map (fun (name, ok) -> (name, ok, "")) claims)

let write path json =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.pretty json));
  Printf.printf "wrote %s\n" path

(* The gap a fault's window left in delivery, or [None] when delivery
   never resumed; [blackouts] is Trace_report.blackouts' output. *)
let blackout blackouts label =
  match List.find_opt (fun (l, _, _) -> String.equal l label) blackouts with
  | Some (_, _, gap) -> gap
  | None -> None

let all_recovered schedule blackouts =
  List.for_all (fun (label, _, _) -> blackout blackouts label <> None) schedule

(* An artifact's "faults" array: one row per scheduled (label, start,
   end) window, times relative to the stream start. *)
let fault_rows schedule blackouts =
  Json.Arr
    (List.map
       (fun (label, at, until) ->
         let gap = blackout blackouts label in
         Json.Obj
           [ ("label", Json.Str label); ("at_s", Json.fixed 1 at);
             ("until_s", Json.fixed 1 until);
             ("blackout_s", Option.fold ~none:Json.Null ~some:(Json.fixed 6) gap);
             ("recovered", Json.Bool (gap <> None)) ])
       schedule)
