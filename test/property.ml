(* Every QCheck property in the suite becomes an Alcotest case here. Each
   draws its cases from one fixed seed, so every run of the suite checks
   the same cases and a failure reproduces as it stands, like a simulation
   seed. Setting QCheck's own QCHECK_SEED still draws from that seed
   instead, for a deliberate search. *)

let seed = 1

let to_alcotest test =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some _ -> QCheck_alcotest.to_alcotest test
  | None -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
