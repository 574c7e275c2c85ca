(* rina_verify — whole-topology static verification.

   Runs every Rina_check.Verify analysis over named scenario models
   (the registry in Rina_exp.Topo mirroring the shipped examples), and
   optionally lints policy spec files into the same finding stream.

     rina_verify                          # verify every scenario
     rina_verify recursive-internet       # just one
     rina_verify --list                   # what's in the registry
     rina_verify --policy examples/policies/reliable.ini

   Exit status: 0 clean (warnings allowed), 1 at least one
   error-severity finding (or any finding under --strict), 2 an
   unknown scenario or unreadable policy file. *)

open Cmdliner
module Diag = Rina_check.Diag
module Verify = Rina_check.Verify
module Topo = Rina_exp.Topo
module Json = Rina_util.Json

let diag_json (d : Diag.t) =
  Json.Obj
    ([ ("code", Json.Str d.code);
       ("severity", Json.Str (Diag.severity_to_string d.severity));
       ("line", Json.int d.line); ("message", Json.Str d.message) ]
    @ match d.hint with None -> [] | Some h -> [ ("hint", Json.Str h) ])

let summary_json (s : Verify.summary) =
  Json.Obj
    [ ("difs", Json.int s.n_difs); ("members", Json.int s.n_members);
      ("adjacencies", Json.int s.n_adjacencies); ("intents", Json.int s.n_intents);
      ("support_depth", Json.int s.support_depth) ]

let print_diag d = Printf.printf "  %s\n" (Diag.to_string d)

let print_summary (s : Verify.summary) =
  Printf.printf
    "  %d DIF(s), %d member(s), %d adjacenc%s, %d intent(s), support depth %d\n"
    s.n_difs s.n_members s.n_adjacencies
    (if s.n_adjacencies = 1 then "y" else "ies")
    s.n_intents s.support_depth

let run names list_only policies json strict quiet max_depth =
  let registry = Topo.scenarios () in
  if list_only then begin
    List.iter (fun (n, _) -> print_endline n) registry;
    0
  end
  else begin
    let unknown =
      List.filter (fun n -> not (List.mem_assoc n registry)) names
    in
    List.iter (Printf.eprintf "unknown scenario %S (try --list)\n") unknown;
    if unknown <> [] then 2
    else begin
      let chosen =
        match names with
        | [] -> registry
        | ns -> List.map (fun n -> (n, List.assoc n registry)) ns
      in
      let scenario_results =
        List.map
          (fun (name, model) ->
            let r = Verify.verify ~max_depth model in
            if not (quiet || json) then begin
              Printf.printf "scenario %s:\n" name;
              print_summary r.summary;
              List.iter print_diag r.diags
            end;
            (name, r))
          chosen
      in
      let policy_results =
        List.map
          (fun path ->
            match In_channel.with_open_text path In_channel.input_all with
            | exception Sys_error e ->
              Printf.eprintf "%s\n" e;
              (path, None)
            | text ->
              let diags = Rina_check.Lint.lint text in
              if not (quiet || json) then begin
                Printf.printf "policy %s:\n" path;
                List.iter print_diag diags
              end;
              (path, Some diags))
          policies
      in
      if json then begin
        let diags ds = Json.Arr (List.map diag_json ds) in
        let scen (name, (r : Verify.report)) =
          Json.Obj
            [ ("name", Json.Str name); ("summary", summary_json r.summary);
              ("diags", diags r.diags) ]
        in
        let pol (path, ds) =
          Json.Obj
            [ ("file", Json.Str path); ("diags", diags (Option.value ~default:[] ds)) ]
        in
        Json.Obj
          [ ("scenarios", Json.Arr (List.map scen scenario_results));
            ("policies", Json.Arr (List.map pol policy_results)) ]
        |> Json.to_string |> print_endline
      end;
      let all_diags =
        List.concat_map (fun (_, (r : Verify.report)) -> r.diags) scenario_results
        @ List.concat_map (fun (_, d) -> Option.value ~default:[] d) policy_results
      in
      let io_failed = List.exists (fun (_, d) -> d = None) policy_results in
      let errors = List.length (Diag.errors all_diags) in
      let warnings = List.length (Diag.warnings all_diags) in
      if not (quiet || json) then
        Printf.printf "%d scenario(s), %d policy file(s): %d error(s), %d warning(s)\n"
          (List.length scenario_results)
          (List.length policy_results)
          errors warnings;
      if io_failed then 2
      else if errors > 0 || (strict && all_diags <> []) then 1
      else 0
    end
  end

let cmd =
  let names =
    Arg.(value & pos_all string []
         & info [] ~docv:"SCENARIO"
             ~doc:"Scenario name(s) from the registry (default: all).")
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List known scenarios and exit.")
  in
  let policies =
    Arg.(value & opt_all string []
         & info [ "policy" ] ~docv:"SPEC"
             ~doc:"Also lint a policy spec file into the same finding stream \
                   (repeatable).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable output.") in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as errors.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Print nothing; exit status only.")
  in
  let max_depth =
    Arg.(value & opt int 16
         & info [ "max-depth" ] ~docv:"N"
             ~doc:"Bound on the DIF recursion depth (rule V210).")
  in
  Cmd.v
    (Cmd.info "rina_verify" ~version:"1.0.0"
       ~doc:"Statically verify whole RINA topologies before they run")
    Term.(
      const run $ names $ list_only $ policies $ json $ strict $ quiet $ max_depth)

let () = exit (Cmd.eval' cmd)
