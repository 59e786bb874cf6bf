(* The paper's §4 methodology as a test: randomized whole-cluster
   simulations with fault injection and buggification, checked by the
   oracle battery, reproducible from the seed. *)

open Fdb_workloads

let run seed = Swarm.run_one ~duration:25.0 ~seed ()

let check_pass r =
  if r.Swarm.oracle_failures <> [] then
    Alcotest.fail
      (Format.asprintf "seed %Ld failed oracles: %a" r.Swarm.seed Swarm.pp_report r)

let test_seed_1 () = check_pass (run 101L)
let test_seed_2 () = check_pass (run 202L)
let test_seed_3 () = check_pass (run 303L)

let test_workloads_made_progress () =
  let r = run 404L in
  check_pass r;
  Alcotest.(check bool) "transfers happened" true (r.Swarm.transfers > 0);
  Alcotest.(check bool) "rotations happened" true (r.Swarm.rotations > 0);
  Alcotest.(check bool) "soup committed" true (r.Swarm.soup_committed > 0)

let test_deterministic_replay () =
  let a = run 505L and b = run 505L in
  Alcotest.(check bool) "identical reports for identical seeds" true (a = b)

let test_faults_actually_recover () =
  (* At least one of a handful of seeds must exercise a real recovery
     (epoch > 1); otherwise the fault injector is a no-op. *)
  let epochs = List.map (fun s -> (run s).Swarm.epochs) [ 101L; 202L; 303L; 404L ] in
  Alcotest.(check bool) "some run recovered" true (List.exists (fun e -> e > 1) epochs)

(* Seeds that historically exposed real bugs (EXPERIMENTS.md bug log):
   303 = rollback under-shoot across skipped generations,
   502 = log pruning vs resurrection dragging RV to zero,
   903 = storage peek failover off the tag's replica set,
   52 = a move-in floor lost on reboot (two fetches from one start key). *)
let test_regression_seed_303 () = check_pass (Swarm.run_one ~duration:30.0 ~seed:303L ())
let test_regression_seed_502 () = check_pass (Swarm.run_one ~duration:30.0 ~seed:502L ())
let test_regression_seed_903 () = check_pass (Swarm.run_one ~duration:25.0 ~seed:903L ())

let test_regression_seed_52 () =
  check_pass (Swarm.run_one ~duration:60.0 ~layers:true ~dd_movement:true ~seed:52L ())

let suite =
  [
    Alcotest.test_case "regression seed 303" `Slow test_regression_seed_303;
    Alcotest.test_case "regression seed 502" `Slow test_regression_seed_502;
    Alcotest.test_case "regression seed 903" `Slow test_regression_seed_903;
    Alcotest.test_case "regression seed 52 (move-in floor lost on reboot)" `Slow
      test_regression_seed_52;
    Alcotest.test_case "swarm seed 101" `Slow test_seed_1;
    Alcotest.test_case "swarm seed 202" `Slow test_seed_2;
    Alcotest.test_case "swarm seed 303" `Slow test_seed_3;
    Alcotest.test_case "swarm progress" `Slow test_workloads_made_progress;
    Alcotest.test_case "deterministic replay" `Slow test_deterministic_replay;
    Alcotest.test_case "faults recover" `Slow test_faults_actually_recover;
  ]
