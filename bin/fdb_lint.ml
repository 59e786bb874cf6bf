(* fdb_lint: the determinism lint driver (DESIGN.md, "The determinism
   contract"). Walks every .ml under the given roots (default lib bin
   bench), runs the Lint pass, runs R7 over every lib/ .mli among them
   against the .ml files under Lint.r7_reference_roots (test fixtures
   excluded) and, when the protocol file is among them, R9 against the same
   files, prints file:line:col diagnostics (or a JSON
   array with --json), and exits non-zero on any violation. Wired into
   `dune build @lint`, which `dune runtest` depends on.

     dune exec bin/fdb_lint.exe -- --explain R5
     dune exec bin/fdb_lint.exe -- lib bin bench
     dune exec bin/fdb_lint.exe -- --json lib *)

open Cmdliner

(* The pass must stay cheap enough to sit on the edit-test loop. *)
let budget_seconds = 5.0

(* The driver's own CPU time, for the budget; it never runs inside a
   simulation. *)
(* fdb-lint: allow R1 -- times the lint's own runtime budget *)
let cpu () = Sys.time ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Lint fixtures are inputs to the lint's own tests, not code. *)
let rec walk_dir suffix acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left
         (fun acc entry ->
           if entry = "_build" || entry = "lint_fixtures" || (entry <> "" && entry.[0] = '.')
           then acc
           else walk_dir suffix acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path suffix then path :: acc
  else acc

let sources suffix roots =
  List.concat_map (fun root -> walk_dir suffix [] root) roots |> List.sort compare

let with_source f = (f, read_file f)

let run_lint json roots =
  let t0 = cpu () in
  let files = sources ".ml" roots and interfaces = sources ".mli" roots in
  let implementations =
    sources ".ml" (List.filter Sys.file_exists Lint.r7_reference_roots)
    |> List.map with_source
  in
  let diags =
    List.concat_map (fun f -> Lint.lint_file f) files
    @ Lint.dead_exports ~interfaces:(List.map with_source interfaces) ~implementations
    @
    if List.mem Lint.r9_protocol files then
      Lint.one_sided_messages ~protocol:(with_source Lint.r9_protocol) ~implementations
    else []
  in
  let scanned = List.length files + List.length interfaces in
  if json then print_endline (Lint.diagnostics_to_json diags)
  else List.iter (fun d -> Format.printf "%a@." Lint.pp_diagnostic d) diags;
  let elapsed = cpu () -. t0 in
  if elapsed > budget_seconds then begin
    Printf.eprintf "fdb_lint: blew the %.0fs runtime budget (%.2fs over %d files)\n"
      budget_seconds elapsed scanned;
    2
  end
  else if diags <> [] then begin
    if not json then
      Printf.printf "fdb_lint: %d violation(s) in %d files (%.2fs)\n"
        (List.length diags) scanned elapsed;
    1
  end
  else begin
    if not json then
      Printf.printf "fdb_lint: OK — %d files clean (%.2fs)\n" scanned elapsed;
    0
  end

let explain_rule name =
  match Lint.rule_of_string name with
  | Some rule ->
      print_endline (Lint.explain rule);
      0
  | None ->
      Printf.eprintf "fdb_lint: unknown rule %s (have %s)\n" name
        (String.concat " " (List.map Lint.rule_name Lint.all_rules));
      2

let cmd =
  let explain =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"RULE" ~doc:"Print the rationale for $(docv) and exit.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit diagnostics as a JSON array (file/line/col/rule/msg) \
             instead of text; suppresses the summary line.")
  in
  let roots =
    Arg.(
      value
      & pos_all string [ "lib"; "bin"; "bench" ]
      & info [] ~docv:"DIR" ~doc:"Directories to scan (default: lib bin bench).")
  in
  let action explain json roots =
    exit (match explain with Some r -> explain_rule r | None -> run_lint json roots)
  in
  Cmd.v
    (Cmd.info "fdb_lint" ~doc:"determinism lint for the FoundationDB reproduction")
    Term.(const action $ explain $ json $ roots)

let () = exit (Cmd.eval cmd)
