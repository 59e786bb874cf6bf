(* Golden-file tests for the determinism lint (fdb_lint). Each fixture
   under lint_fixtures/ carries exactly one kind of violation; its
   .expected file holds the diagnostics (with line:col) the pass must
   produce. Fixtures are linted as if they lived under lib/ so that the
   library-only rule R4 applies. The R7 fixture is one interface plus the
   implementations that may reference it; the R9 fixture is one protocol
   variant plus the implementations that build and match it. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let render diags =
  String.concat ""
    (List.map (fun d -> Format.asprintf "%a@." Lint.pp_diagnostic d) diags)

let golden name () =
  let file = Filename.concat "lint_fixtures" (name ^ ".ml") in
  let as_path = "lib/lint_fixtures/" ^ name ^ ".ml" in
  let got = render (Lint.lint_file ~as_path file) in
  let want = read_file (Filename.concat "lint_fixtures" (name ^ ".expected")) in
  Alcotest.(check string) name want got

(* Rule applicability is path-dependent; exercise the boundaries through
   lint_source so no fixture staging is needed. *)

let count_rule rule diags =
  List.length (List.filter (fun d -> d.Lint.d_rule = Some rule) diags)

let test_r1_det_rng_exempt () =
  let src = "let x = Random.int 5\n" in
  Alcotest.(check int)
    "det_rng is the one sanctioned randomness site" 0
    (count_rule Lint.R1 (Lint.lint_source ~path:"lib/util/det_rng.ml" src));
  Alcotest.(check int)
    "same source elsewhere violates" 1
    (count_rule Lint.R1 (Lint.lint_source ~path:"lib/core/proxy.ml" src))

let test_r2_util_exempt () =
  let src = "let f t = Hashtbl.iter (fun _ _ -> ()) t\n" in
  Alcotest.(check int)
    "lib/util may touch raw Hashtbl" 0
    (count_rule Lint.R2 (Lint.lint_source ~path:"lib/util/det_tbl.ml" src));
  Alcotest.(check int)
    "everyone else goes through Det_tbl" 1
    (count_rule Lint.R2 (Lint.lint_source ~path:"lib/kv/btree.ml" src))

let test_r4_library_only () =
  let src = "let main () = print_endline \"hi\"\n" in
  Alcotest.(check int)
    "bin/ drivers may print" 0
    (count_rule Lint.R4 (Lint.lint_source ~path:"bin/tool.ml" src));
  Alcotest.(check int)
    "lib/ code may not" 1
    (count_rule Lint.R4 (Lint.lint_source ~path:"lib/obs/status.ml" src))

let test_r8_library_only () =
  let src = "let cache = Hashtbl.create 16\n" in
  Alcotest.(check int)
    "bin/ drivers may keep process-wide state" 0
    (count_rule Lint.R8 (Lint.lint_source ~path:"bin/tool.ml" src));
  Alcotest.(check int)
    "lib/ code may not" 1
    (count_rule Lint.R8 (Lint.lint_source ~path:"lib/core/x.ml" src))

let test_r3_annotated_ok () =
  let src = "let f p = ignore (Future.try_fulfill p () : bool)\n" in
  Alcotest.(check int)
    "annotated ignore passes" 0
    (count_rule Lint.R3 (Lint.lint_source ~path:"lib/core/x.ml" src))

let test_open_unix_flagged () =
  let src = "open Unix\nlet x = 1\n" in
  Alcotest.(check int) "open Unix is R1" 1
    (count_rule Lint.R1 (Lint.lint_source ~path:"lib/core/x.ml" src));
  let src = "module R = Random\n" in
  Alcotest.(check int) "module alias of Random is R1" 1
    (count_rule Lint.R1 (Lint.lint_source ~path:"lib/core/x.ml" src))

let test_same_line_suppression () =
  let src =
    "let f t = Hashtbl.fold (fun _ v a -> v + a) t 0 (* fdb-lint: allow R2 -- \
     unit test *)\n"
  in
  Alcotest.(check int) "same-line suppression applies" 0
    (List.length (Lint.lint_source ~path:"lib/core/x.ml" src))

let test_suppression_wrong_rule () =
  let src =
    "(* fdb-lint: allow R1 -- wrong rule on purpose *)\n\
     let f t = Hashtbl.fold (fun _ v a -> v + a) t 0\n"
  in
  Alcotest.(check int) "suppressing R1 does not silence R2" 1
    (count_rule Lint.R2 (Lint.lint_source ~path:"lib/core/x.ml" src))

let golden_json name () =
  let file = Filename.concat "lint_fixtures" (name ^ ".ml") in
  let as_path = "lib/lint_fixtures/" ^ name ^ ".ml" in
  let got = Lint.diagnostics_to_json (Lint.lint_file ~as_path file) ^ "\n" in
  let want = read_file (Filename.concat "lint_fixtures" (name ^ ".expected.json")) in
  Alcotest.(check string) (name ^ " json") want got

(* R5 boundary and semantics probed through lint_source directly. *)

let test_r5_lib_only () =
  let src =
    "open Future.Syntax\n\
     let f t = if t.busy then Future.return () else let* v = go t in t.busy <- true; use v\n"
  in
  Alcotest.(check int) "R5 applies under lib/" 1
    (count_rule Lint.R5 (Lint.lint_source ~path:"lib/core/x.ml" src));
  Alcotest.(check int) "bin/ drivers are exempt" 0
    (count_rule Lint.R5 (Lint.lint_source ~path:"bin/tool.ml" src))

let test_r5_bind_literal () =
  (* A literal Future.bind continuation is a yield too — the let* syntax is
     not the only spelling. *)
  let src =
    "let f t =\n\
    \  if t.busy then Future.return ()\n\
    \  else Future.bind (go t) (fun v -> t.busy <- true; use v)\n"
  in
  Alcotest.(check int) "bind continuation is post-yield" 1
    (count_rule Lint.R5 (Lint.lint_source ~path:"lib/core/x.ml" src))

let test_r5_ref_cells () =
  let src =
    "open Future.Syntax\n\
     let f r = let seen = !r in let* () = pause () in r := seen + 1; Future.return ()\n"
  in
  (* Two reports: the blind write to [r] while stale, and the use of the
     captured pre-yield value [seen] that feeds it. *)
  Alcotest.(check int) "ref read-yield-write flags" 2
    (count_rule Lint.R5 (Lint.lint_source ~path:"lib/core/x.ml" src));
  let src =
    "open Future.Syntax\n\
     let f r = let* () = pause () in incr r; Future.return ()\n"
  in
  Alcotest.(check int) "incr is an atomic read-modify-write" 0
    (count_rule Lint.R5 (Lint.lint_source ~path:"lib/core/x.ml" src))

let test_r5_future_construction_no_yield () =
  (* Binding a letop future to a name only constructs it; the enclosing
     function does not suspend. *)
  let src =
    "open Future.Syntax\n\
     let f t =\n\
    \  match t.cache with\n\
    \  | Some v -> v\n\
    \  | None -> let fut = let* x = fetch t in decode x in t.cache <- Some fut; fut\n"
  in
  Alcotest.(check int) "future construction is not a yield" 0
    (count_rule Lint.R5 (Lint.lint_source ~path:"lib/core/x.ml" src))

let test_r6_future_type_only () =
  let src = "let f x = ignore (count x : int)\n" in
  Alcotest.(check int) "annotated non-future ignore passes R6" 0
    (count_rule Lint.R6 (Lint.lint_source ~path:"lib/core/x.ml" src))

(* R7 is cross-file: the golden fixture is one interface plus the
   implementations that may reference it, each given the repo-relative path
   that decides whether it counts. *)
let fixture name = read_file (Filename.concat "lint_fixtures" name)

let golden_r7 () =
  let got =
    render
      (Lint.dead_exports
         ~interfaces:[ ("lib/lint_fixtures/r7_widget.mli", fixture "r7_widget.mli") ]
         ~implementations:
           [
             ("lib/lint_fixtures/r7_widget.ml", fixture "r7_widget.ml");
             ("bin/r7_users.ml", fixture "r7_users.ml");
             ("bin/r7_opener.ml", fixture "r7_opener.ml");
             ("test/r7_test_user.ml", fixture "r7_test_user.ml");
           ])
  in
  Alcotest.(check string) "r7_widget" (fixture "r7_widget.expected") got

let r7_flagged ~impls =
  Lint.dead_exports
    ~interfaces:[ ("lib/core/m.mli", "val v : int\nval w : int\n") ]
    ~implementations:impls
  |> List.filter_map (fun d ->
         if d.Lint.d_rule = Some Lint.R7 then Some d.Lint.d_line else None)

(* Each reference form on its own, so one cannot mask another. *)
let test_r7_reference_forms () =
  List.iter
    (fun (form, path, src) ->
      Alcotest.(check (list int)) form [ 2 ] (r7_flagged ~impls:[ (path, src) ]))
    [
      ("qualified", "lib/kv/x.ml", "let x = M.v\n");
      ("library wrapper", "bin/x.ml", "let x = Fdb_core.M.v\n");
      ("alias", "bench/x.ml", "module A = Fdb_core.M\nlet x = A.v\n");
      ("open", "lib/kv/x.ml", "open Fdb_core.M\nlet x = v\n");
      ("let open", "lib/kv/x.ml", "let x = let open M in v\n");
      ("local open", "lib/kv/x.ml", "let x = M.(v + 1)\n");
      ("test only", "test/x.ml", "let x = M.v\n");
    ]

let test_r7_own_module_excluded () =
  Alcotest.(check (list int)) "own .ml never clears" [ 1; 2 ]
    (r7_flagged ~impls:[ ("lib/core/m.ml", "let v = 1\nlet w = M.v\n") ]);
  Alcotest.(check (list int)) "any other .ml does" [ 2 ]
    (r7_flagged ~impls:[ ("examples/demo.ml", "let x = Fdb_core.M.v\n") ])

let test_r7_lib_only () =
  Alcotest.(check int) "interfaces outside lib/ are not checked" 0
    (List.length
       (Lint.dead_exports ~interfaces:[ ("bin/tool.mli", "val v : int\n") ]
          ~implementations:[]))

(* R9 is cross-file too: the protocol fixture plus its users. *)
let golden_r9 () =
  let got =
    render
      (Lint.one_sided_messages
         ~protocol:("lib/lint_fixtures/r9_proto.ml", fixture "r9_proto.ml")
         ~implementations:
           [
             ("lib/lint_fixtures/r9_proto.ml", fixture "r9_proto.ml");
             ("lib/core/r9_users.ml", fixture "r9_users.ml");
           ])
  in
  Alcotest.(check string) "r9_proto" (fixture "r9_proto.expected") got

let golden_r9_fields () =
  let got =
    render
      (Lint.one_sided_messages
         ~protocol:("lib/lint_fixtures/r9_fields.ml", fixture "r9_fields.ml")
         ~implementations:[ ("lib/core/r9_fields_users.ml", fixture "r9_fields_users.ml") ])
  in
  Alcotest.(check string) "r9_fields" (fixture "r9_fields.expected") got

(* A protocol file with no request type must fail, not pass unchecked. *)
let golden_r9_no_req () =
  let got =
    render
      (Lint.one_sided_messages
         ~protocol:("lib/lint_fixtures/r9_no_req.ml", fixture "r9_no_req.ml")
         ~implementations:[])
  in
  Alcotest.(check string) "r9_no_req" (fixture "r9_no_req.expected") got

let test_explain_covers_all_rules () =
  List.iter
    (fun r ->
      let text = Lint.explain r in
      Alcotest.(check bool)
        (Lint.rule_name r ^ " explanation names itself")
        true
        (String.length text > 40
        && String.sub text 0 2 = Lint.rule_name r))
    Lint.all_rules

let suite =
  [
    Alcotest.test_case "golden: R1 unix" `Quick (golden "r1_unix");
    Alcotest.test_case "golden: R2 hashtbl" `Quick (golden "r2_hashtbl");
    Alcotest.test_case "golden: R3 ignore" `Quick (golden "r3_ignore");
    Alcotest.test_case "golden: R4 print" `Quick (golden "r4_print");
    Alcotest.test_case "golden: suppressed" `Quick (golden "suppressed");
    Alcotest.test_case "golden: bad suppression" `Quick (golden "bad_suppression");
    Alcotest.test_case "golden: R5 stale write" `Quick (golden "r5_stale_write");
    Alcotest.test_case "golden: R5 stale capture" `Quick (golden "r5_capture");
    Alcotest.test_case "golden: R5 re-read idiom clean" `Quick (golden "r5_reread");
    Alcotest.test_case "golden: R6 discards" `Quick (golden "r6_discard");
    Alcotest.test_case "golden: R6 detach clean" `Quick (golden "r6_detach");
    Alcotest.test_case "golden: stale suppression" `Quick (golden "stale_suppression");
    Alcotest.test_case "golden: R8 module-level state" `Quick (golden "r8_globals");
    Alcotest.test_case "golden: R6 json" `Quick (golden_json "r6_discard");
    Alcotest.test_case "R5 lib only" `Quick test_r5_lib_only;
    Alcotest.test_case "R5 literal bind" `Quick test_r5_bind_literal;
    Alcotest.test_case "R5 ref cells" `Quick test_r5_ref_cells;
    Alcotest.test_case "R5 construction is not a yield" `Quick
      test_r5_future_construction_no_yield;
    Alcotest.test_case "R6 future types only" `Quick test_r6_future_type_only;
    Alcotest.test_case "R1 det_rng exemption" `Quick test_r1_det_rng_exempt;
    Alcotest.test_case "R2 lib/util exemption" `Quick test_r2_util_exempt;
    Alcotest.test_case "R4 library only" `Quick test_r4_library_only;
    Alcotest.test_case "R8 library only" `Quick test_r8_library_only;
    Alcotest.test_case "R3 annotated ok" `Quick test_r3_annotated_ok;
    Alcotest.test_case "open/alias Unix flagged" `Quick test_open_unix_flagged;
    Alcotest.test_case "same-line suppression" `Quick test_same_line_suppression;
    Alcotest.test_case "suppression rule mismatch" `Quick test_suppression_wrong_rule;
    Alcotest.test_case "explain all rules" `Quick test_explain_covers_all_rules;
    Alcotest.test_case "golden: R7 dead exports" `Quick golden_r7;
    Alcotest.test_case "R7 reference forms" `Quick test_r7_reference_forms;
    Alcotest.test_case "R7 own module excluded" `Quick test_r7_own_module_excluded;
    Alcotest.test_case "R7 lib only" `Quick test_r7_lib_only;
    Alcotest.test_case "golden: R9 one-sided messages" `Quick golden_r9;
    Alcotest.test_case "golden: R9 unread message fields" `Quick golden_r9_fields;
    Alcotest.test_case "golden: R9 protocol without requests" `Quick golden_r9_no_req;
  ]
