(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (§5). `dune exec bench/main.exe` runs everything;
   `-- --only figN[,figM...]` selects, `-- --quick` shrinks the figure 8
   sweeps. See EXPERIMENTS.md for paper-vs-measured discussion. *)

let available =
  [
    "micro"; "conflict"; "engine"; "range"; "commit"; "rebalance"; "retry"; "balance";
    "fig3"; "fig7"; "fig8"; "fig9"; "fig10"; "ablation";
  ]

let () =
  let only = ref [] in
  let quick = ref false in
  let smoke = ref false in
  let spec =
    [
      ( "--only",
        Arg.String
          (fun s -> only := String.split_on_char ',' s @ !only),
        "NAMES  comma-separated subset of: " ^ String.concat " " available );
      ("--quick", Arg.Set quick, "  smaller sweeps (fig8)");
      ( "--smoke",
        Arg.Set smoke,
        "  CI smoke: small runs that check each bench's floor" );
    ]
  in
  Arg.parse spec (fun s -> only := s :: !only) "fdb benchmark harness";
  let selected = if !only = [] then available else !only in
  let want name = List.mem name selected in
  Printf.printf "FoundationDB reproduction benchmarks (simulated cluster)\n";
  Printf.printf "selected: %s%s\n%!" (String.concat " " selected)
    (if !quick then " (quick)" else "");
  if want "micro" then Micro.run ();
  if want "conflict" then Conflict.run ~smoke:!smoke ();
  if want "engine" then Engine_cost.run ~smoke:!smoke ();
  if want "range" then Range_read.run ~smoke:!smoke ();
  if want "commit" then Commit_pipeline.run ~smoke:!smoke ();
  if want "rebalance" then Rebalance.run ~smoke:!smoke ();
  if want "retry" then Retry.run ~smoke:!smoke ();
  if want "balance" then Balance.run ~smoke:!smoke ();
  if want "fig3" then Fig3.run ();
  if want "fig7" then Fig7.run ();
  if want "fig8" then
    Fig8.run ~machine_counts:(if !quick then [ 4; 12; 24 ] else [ 4; 6; 8; 12; 16; 20; 24 ]) ();
  if want "fig9" then Fig9.run ();
  if want "fig10" then Fig10.run ~smoke:!smoke ();
  if want "ablation" then Ablation.run ();
  Printf.printf "\ndone.\n"
