(* fdb_lint: the determinism lint driver (DESIGN.md, "The determinism
   contract"). Walks every .ml under the given roots (default lib bin
   bench), runs the Lint pass, runs R7 over every lib/ .mli among them
   against the .ml files under Lint.r7_reference_roots (test fixtures
   excluded) and, when the protocol file is among them, R9 against the same
   files, prints file:line:col diagnostics (or a JSON
   array with --json), and exits non-zero on any violation. Also audits the
   whitelist: an entry that absorbed no diagnostic anywhere in the scanned
   tree is stale and reported as an error. Wired into `dune build @lint`,
   which `dune runtest` depends on.

     dune exec bin/fdb_lint.exe -- --explain R5
     dune exec bin/fdb_lint.exe -- --whitelist lint-whitelist.txt lib bin bench
     dune exec bin/fdb_lint.exe -- --json lib *)

open Cmdliner

(* The pass must stay cheap enough to sit on the edit-test loop. *)
let budget_seconds = 5.0

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

let run_lint json whitelist_file roots =
  let t0 = Sys.time () in
  match
    match whitelist_file with
    | None -> Ok []
    | Some f -> ( try Ok (Lint.parse_whitelist (read_file f)) with Failure m -> Error m)
  with
  | Error msg ->
      prerr_endline ("fdb_lint: " ^ msg);
      2
  | Ok whitelist ->
      let files = sources ".ml" roots and interfaces = sources ".mli" roots in
      let implementations =
        sources ".ml" (List.filter Sys.file_exists Lint.r7_reference_roots)
      in
      (* Stale-whitelist audit: track which entries absorbed a diagnostic.
         Only entries whose file was actually scanned can be convicted —
         linting a subtree must not flag entries for files outside it. *)
      let used = Hashtbl.create 8 in
      let whitelist_used entry = Hashtbl.replace used entry () in
      let implementations = List.map with_source implementations in
      let diags =
        List.concat_map (Lint.lint_file ~whitelist ~whitelist_used) files
        @ Lint.dead_exports ~interfaces:(List.map with_source interfaces) ~implementations
        @
        if List.mem Lint.r9_protocol files then
          Lint.one_sided_messages ~protocol:(with_source Lint.r9_protocol) ~implementations
        else []
      in
      let scanned =
        List.map
          (fun f -> String.map (fun c -> if c = '\\' then '/' else c) f)
          (files @ interfaces)
      in
      let stale_entries =
        List.filter
          (fun ((_, path) as entry) ->
            List.mem path scanned && not (Hashtbl.mem used entry))
          whitelist
      in
      let stale_diags =
        List.map
          (fun (rule, path) ->
            {
              Lint.d_file = path;
              d_line = 0;
              d_col = 0;
              d_rule = None;
              d_msg =
                "stale whitelist entry: " ^ Lint.rule_name rule ^ " " ^ path
                ^ " no longer suppresses any diagnostic; remove it from the \
                   whitelist";
            })
          stale_entries
      in
      let diags = diags @ stale_diags in
      if json then print_endline (Lint.diagnostics_to_json diags)
      else List.iter (fun d -> Format.printf "%a@." Lint.pp_diagnostic d) diags;
      let elapsed = Sys.time () -. t0 in
      if elapsed > budget_seconds then begin
        Printf.eprintf "fdb_lint: blew the %.0fs runtime budget (%.2fs over %d files)\n"
          budget_seconds elapsed (List.length scanned);
        2
      end
      else if diags <> [] then begin
        if not json then
          Printf.printf "fdb_lint: %d violation(s) in %d files (%.2fs)\n"
            (List.length diags) (List.length scanned) elapsed;
        1
      end
      else begin
        if not json then
          Printf.printf "fdb_lint: OK — %d files clean (%.2fs)\n"
            (List.length scanned) elapsed;
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
  let whitelist =
    Arg.(
      value
      & opt (some file) None
      & info [ "whitelist" ] ~docv:"FILE"
          ~doc:"Checked-in exemption list: one \"RULE path\" pair per line.")
  in
  let roots =
    Arg.(
      value
      & pos_all string [ "lib"; "bin"; "bench" ]
      & info [] ~docv:"DIR" ~doc:"Directories to scan (default: lib bin bench).")
  in
  let action explain json whitelist roots =
    exit
      (match explain with
      | Some r -> explain_rule r
      | None -> run_lint json whitelist roots)
  in
  Cmd.v
    (Cmd.info "fdb_lint" ~doc:"determinism lint for the FoundationDB reproduction")
    Term.(const action $ explain $ json $ whitelist $ roots)

let () = exit (Cmd.eval cmd)
