(* rina_lint — static analyzer for declarative policy specs.

   Lints one or more spec files with Rina_check.Lint and prints every
   finding as  FILE:LINE: severity[CODE] message (hint: ...).

   Exit status: 0 all files clean (warnings allowed), 1 at least one
   error-severity finding (or any finding under --strict), 2 a file
   could not be read.  CI-friendly:

     rina_lint examples/policies/*.ini

   Topology-aware rules (L2xx) activate when the target network is
   described — either by hand:

     rina_lint --diameter 5 --bit-rate 1e7 --rtt 0.08 dif.ini

   or from a named scenario of the registry (the numbers are derived
   from the scenario's graph, through stacked DIFs recursively):

     rina_lint --topology recursive-internet:internet dif.ini

   The full diagnostic rule table (L-, V- and SAN_ codes) is exported
   by --list-rules; --markdown emits exactly the generated
   docs/linting-rules.md, which CI diffs against the checked-in copy. *)

open Cmdliner
module Diag = Rina_check.Diag
module Json = Rina_util.Json

(* ---------- the rule table (--list-rules) ---------- *)

let rule_groups =
  [
    ("Policy lint (L codes)", "rina_lint on .ini policy specs", Rina_check.Lint.rules);
    ( "Topology verification (V codes)",
      "rina_verify / Rina_check.Verify on whole-topology models",
      Rina_check.Verify.rules );
    ( "Sanitizer (SAN codes)",
      "Rina_check.Sanitizer over live runs (invariants and audits)",
      Rina_check.Sanitizer.rules );
  ]

let print_rules_text () =
  List.iter
    (fun (title, _, rules) ->
      Printf.printf "%s\n" title;
      List.iter
        (fun (r : Diag.rule) ->
          Printf.printf "  %-22s %-8s %s\n" r.r_code
            (Diag.severity_to_string r.r_severity)
            r.r_summary)
        (List.sort Diag.compare_rules rules))
    rule_groups

let print_rules_json () =
  let rule group (r : Diag.rule) =
    Json.Obj
      [ ("code", Json.Str r.r_code);
        ("severity", Json.Str (Diag.severity_to_string r.r_severity));
        ("group", Json.Str group); ("summary", Json.Str r.r_summary) ]
  in
  let rows =
    List.concat_map
      (fun (title, _, rules) ->
        List.map (rule title) (List.sort Diag.compare_rules rules))
      rule_groups
  in
  print_endline (Json.to_string (Json.Arr rows))

(* The entirety of docs/linting-rules.md; regenerate with
     dune exec bin/rina_lint.exe -- --list-rules --markdown *)
let print_rules_markdown () =
  Printf.printf "# Diagnostic rule table\n\n";
  Printf.printf
    "Every stable diagnostic code the toolchain can emit, by analysis.\n\
     Generated by `rina_lint --list-rules --markdown` — do not edit by\n\
     hand; CI diffs this file against the binary's output.\n";
  List.iter
    (fun (title, where, rules) ->
      Printf.printf "\n## %s\n\nEmitted by %s.\n\n" title where;
      Printf.printf "| Code | Severity | Summary |\n|---|---|---|\n";
      List.iter
        (fun (r : Diag.rule) ->
          Printf.printf "| `%s` | %s | %s |\n" r.r_code
            (Diag.severity_to_string r.r_severity)
            r.r_summary)
        (List.sort Diag.compare_rules rules))
    rule_groups

(* ---------- linting ---------- *)

let lint_file ~topo ~strict ~quiet path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e ->
    Printf.eprintf "%s\n" e;
    `Io_error
  | text ->
    let diags = Rina_check.Lint.lint ?topo text in
    List.iter
      (fun (d : Rina_check.Diag.t) ->
        if not quiet then
          let open Rina_check.Diag in
          let hint = match d.hint with None -> "" | Some h -> "\n    hint: " ^ h in
          Printf.printf "%s:%d: %s[%s] %s%s\n" path d.line
            (severity_to_string d.severity)
            d.code d.message hint)
      diags;
    if
      Rina_check.Diag.has_errors diags
      || (strict && diags <> [])
    then `Findings
    else if diags <> [] then `Warnings
    else `Clean

(* [--topology NAME] or [--topology NAME:DIF]: derive the L2xx inputs
   from a scenario of the registry.  Without [:DIF], the last DIF of
   the model (the top of the stack) is summarised. *)
let topo_of_scenario spec =
  let scenario, dif_name =
    match String.index_opt spec ':' with
    | Some i ->
      ( String.sub spec 0 i,
        Some (String.sub spec (i + 1) (String.length spec - i - 1)) )
    | None -> (spec, None)
  in
  match Rina_exp.Topo.scenario scenario with
  | None ->
    Printf.eprintf "unknown scenario %S (see rina_verify --list)\n" scenario;
    exit 2
  | Some model -> (
    let dif =
      match dif_name with
      | Some d -> d
      | None -> (
        match List.rev model.Rina_check.Verify.difs with
        | top :: _ -> top.Rina_check.Verify.d_name
        | [] ->
          Printf.eprintf "scenario %S has no DIFs\n" scenario;
          exit 2)
    in
    match Rina_check.Verify.lint_topo model ~dif with
    | Some t -> t
    | None ->
      Printf.eprintf "scenario %S has no DIF %S\n" scenario dif;
      exit 2)

let run files diameter bit_rate rtt topology list_rules format strict quiet =
  if list_rules then begin
    (match format with
     | `Text -> print_rules_text ()
     | `Json -> print_rules_json ()
     | `Markdown -> print_rules_markdown ());
    0
  end
  else begin
    let topo =
      match (topology, diameter, bit_rate, rtt) with
      | Some spec, None, None, None -> Some (topo_of_scenario spec)
      | Some _, _, _, _ ->
        Printf.eprintf "--topology replaces --diameter/--bit-rate/--rtt\n";
        exit 2
      | None, Some diameter, Some bottleneck_bit_rate, Some rtt ->
        Some { Rina_check.Lint.diameter; bottleneck_bit_rate; rtt }
      | None, None, None, None -> None
      | _ ->
        Printf.eprintf
          "topology-aware linting needs all of --diameter, --bit-rate and --rtt\n";
        exit 2
    in
    if files = [] then begin
      Printf.eprintf "no spec files given (or use --list-rules)\n";
      exit 2
    end;
    let results = List.map (lint_file ~topo ~strict ~quiet) files in
    let count p = List.length (List.filter p results) in
    let io = count (( = ) `Io_error)
    and bad = count (( = ) `Findings)
    and warned = count (( = ) `Warnings) in
    if not quiet then
      Printf.printf "%d file(s) checked, %d with findings\n" (List.length files)
        (bad + warned + io);
    if io > 0 then 2 else if bad > 0 then 1 else 0
  end

let cmd =
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"SPEC" ~doc:"Policy spec file(s).")
  in
  let diameter =
    Arg.(value & opt (some int) None
         & info [ "diameter" ] ~docv:"HOPS"
             ~doc:"Topology diameter in hops (enables rule L201).")
  in
  let bit_rate =
    Arg.(value & opt (some float) None
         & info [ "bit-rate" ] ~docv:"BPS"
             ~doc:"Bottleneck link rate in bits/second (enables rule L202).")
  in
  let rtt =
    Arg.(value & opt (some float) None
         & info [ "rtt" ] ~docv:"SECONDS" ~doc:"Path round-trip time in seconds.")
  in
  let topology =
    Arg.(value & opt (some string) None
         & info [ "topology" ] ~docv:"SCENARIO[:DIF]"
             ~doc:"Derive the topology numbers from a named scenario of the \
                   registry (default DIF: the top of the stack).  Replaces \
                   --diameter/--bit-rate/--rtt.")
  in
  let list_rules =
    Arg.(value & flag
         & info [ "list-rules" ]
             ~doc:"Print the full diagnostic rule table (L, V and SAN codes) \
                   and exit.")
  in
  let format =
    Arg.(value
         & vflag `Text
             [
               (`Json, info [ "json" ] ~doc:"Rule table as JSON (with --list-rules).");
               ( `Markdown,
                 info [ "markdown" ]
                   ~doc:"Rule table as the generated docs/linting-rules.md \
                         (with --list-rules)." );
             ])
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as errors.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Print nothing; exit status only.")
  in
  Cmd.v
    (Cmd.info "rina_lint" ~version:"1.1.0"
       ~doc:"Lint declarative policy specs for structural and consistency bugs")
    Term.(
      const run $ files $ diameter $ bit_rate $ rtt $ topology
      $ list_rules $ format $ strict $ quiet)

let () = exit (Cmd.eval' cmd)
