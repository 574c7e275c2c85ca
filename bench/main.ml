(* Regenerates every figure/claim experiment of the paper (see
   DESIGN.md §3 and EXPERIMENTS.md).  With no arguments all
   experiments run in order; pass names (f1 f2 f3 f4 f5 c1 c2 c3 c4
   a1 r1 r2 r3 r4 trace) to run a subset. *)

let experiments =
  [
    ("f1", Exp_f1.run);
    ("f2", Exp_f2.run);
    ("f3", Exp_f3.run);
    ("f4", Exp_f4.run);
    ("f5", Exp_f5.run);
    ("c1", Exp_c1.run);
    ("c2", Exp_c2.run);
    ("c3", Exp_c3.run);
    ("c4", Exp_c4.run);
    ("a1", Exp_a1.run);
    ("r1", Exp_r1.run);
    ("r2", Exp_r2.run);
    ("r3", Exp_r3.run);
    ("r4", Exp_r4.run);
    ("trace", Trace_overhead.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | [] | [ _ ] -> List.map fst experiments
    | _ :: names -> names
  in
  (* every name is checked before anything runs, so a typo in a CI
     step fails it instead of gating nothing *)
  (match List.filter (fun n -> not (List.mem_assoc n experiments)) requested with
   | [] -> ()
   | unknown ->
     List.iter (Printf.eprintf "unknown experiment %S\n") unknown;
     Printf.eprintf "valid experiments: %s\n"
       (String.concat " " (List.map fst experiments));
     exit 2);
  List.iter
    (fun name ->
      (List.assoc name experiments) ();
      print_newline ())
    requested
