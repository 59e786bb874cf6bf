(* The promise-lifecycle sanitizer (runtime backstop behind lint rule R6):
   leaked wakeups, double resolves, race-loser cancellation, and the
   detach idiom's failure routing. *)

open Fdb_sim

exception Boom

let lifecycle_after f =
  let (_ : unit) = Engine.run f in
  Engine.last_run_lifecycle ()

let test_leak_detected () =
  let lc =
    lifecycle_after (fun () ->
        let fut, _p = Future.make ~label:"test.leak" () in
        Future.on_resolve fut (fun _ -> ());
        Engine.sleep 0.1)
  in
  Alcotest.(check int) "one leak" 1 (Future.Lifecycle.total_leaks lc);
  Alcotest.(check (list (pair string int)))
    "labeled" [ ("test.leak", 1) ] lc.Future.Lifecycle.lr_leaked

let test_no_waiters_no_leak () =
  (* A pending promise nobody waits on is idle, not a lost wakeup. *)
  let lc =
    lifecycle_after (fun () ->
        let _fut, _p = Future.make ~label:"test.idle" () in
        Engine.sleep 0.1)
  in
  Alcotest.(check int) "no waiter, no leak" 0 (Future.Lifecycle.total_leaks lc)

let test_resolved_no_leak () =
  let lc =
    lifecycle_after (fun () ->
        let fut, p = Future.make ~label:"test.ok" () in
        Future.on_resolve fut (fun _ -> ());
        Future.fulfill p ();
        Engine.sleep 0.1)
  in
  Alcotest.(check int) "resolved, no leak" 0 (Future.Lifecycle.total_leaks lc);
  Alcotest.(check bool) "created counted" true (lc.Future.Lifecycle.lr_created >= 1)

let test_dead_owner_no_leak () =
  (* A promise whose creating process died with it is torn down, not
     leaked: its waiters died too. *)
  let lc =
    lifecycle_after (fun () ->
        let machine = Process.fresh_machine ~dc:"dc1" 77 in
        let proc = Process.create ~name:"doomed" machine in
        Engine.with_process proc (fun () ->
            let fut, _p = Future.make ~label:"test.doomed" () in
            Future.on_resolve fut (fun _ -> ()));
        Engine.kill proc;
        Engine.sleep 0.1)
  in
  Alcotest.(check int) "dead owner, no leak" 0 (Future.Lifecycle.total_leaks lc)

(* The registry drops resolved promises as it grows; the pending ones it
   keeps must still be reported, however many prunes ran past them. *)
let test_prune_keeps_pending () =
  let lc =
    lifecycle_after (fun () ->
        for i = 1 to 5_000 do
          let fut, p = Future.make ~label:"test.churn" () in
          Future.on_resolve fut (fun _ -> ());
          if i mod 1_000 <> 0 then Future.fulfill p ()
        done;
        Engine.sleep 0.1)
  in
  Alcotest.(check (list (pair string int)))
    "every pending promise reported" [ ("test.churn", 5) ] lc.Future.Lifecycle.lr_leaked

let test_double_resolve_tallied () =
  let lc =
    lifecycle_after (fun () ->
        let _fut, p = Future.make ~label:"test.double" () in
        Future.fulfill p ();
        Alcotest.(check bool) "second resolve loses" false (Future.try_fulfill p ());
        Engine.sleep 0.1)
  in
  Alcotest.(check (list (pair string int)))
    "tallied under its label"
    [ ("test.double", 1) ]
    lc.Future.Lifecycle.lr_double_resolved

let test_detach_failure_traced () =
  let lc =
    lifecycle_after (fun () ->
        Future.detach ~name:"exploding-actor" (Future.fail Boom);
        Engine.sleep 0.1)
  in
  Alcotest.(check (list (pair string int)))
    "failure tallied" [ ("exploding-actor", 1) ]
    lc.Future.Lifecycle.lr_detach_failures;
  Alcotest.(check int) "failure traced" 1 (Trace.count "future_detached_error")

let test_detach_success_silent () =
  let lc =
    lifecycle_after (fun () ->
        Future.detach ~name:"fine-actor" (Future.return 42);
        Engine.sleep 0.1)
  in
  Alcotest.(check (list (pair string int)))
    "no tally" [] lc.Future.Lifecycle.lr_detach_failures;
  Alcotest.(check int) "no trace" 0 (Trace.count "future_detached_error")

let test_race_losers_cancelled () =
  (* The known leak offender: race losers used to stay pending forever.
     Now the winner cancels them (traced), so they neither leak nor accept
     a late resolution. *)
  let lc =
    lifecycle_after (fun () ->
        let f1, p1 = Future.make ~label:"test.racer1" () in
        let f2, _p2 = Future.make ~label:"test.racer2" () in
        let r = Future.race [ f1; f2 ] in
        Future.on_resolve r (fun _ -> ());
        Future.fulfill p1 ();
        Alcotest.(check bool) "loser resolved" true (Future.is_resolved f2);
        Engine.sleep 0.1)
  in
  Alcotest.(check int) "no leaks" 0 (Future.Lifecycle.total_leaks lc);
  Alcotest.(check int) "cancellation traced" 1
    (Trace.count "future_race_loser_cancelled")

let test_disabled_outside_run () =
  (* Outside Engine.run the sanitizer is off: promises are not tracked and
     the last report is whatever the previous run left behind. *)
  let before = Engine.last_run_lifecycle () in
  let fut, _p = Future.make ~label:"test.untracked" () in
  Future.on_resolve fut (fun _ -> ());
  let after = Engine.last_run_lifecycle () in
  Alcotest.(check int) "report unchanged" before.Future.Lifecycle.lr_created
    after.Future.Lifecycle.lr_created

let suite =
  [
    Alcotest.test_case "leak detected" `Quick test_leak_detected;
    Alcotest.test_case "no waiters, no leak" `Quick test_no_waiters_no_leak;
    Alcotest.test_case "resolved, no leak" `Quick test_resolved_no_leak;
    Alcotest.test_case "dead owner, no leak" `Quick test_dead_owner_no_leak;
    Alcotest.test_case "prune keeps pending" `Quick test_prune_keeps_pending;
    Alcotest.test_case "double resolve tallied" `Quick test_double_resolve_tallied;
    Alcotest.test_case "detach failure traced" `Quick test_detach_failure_traced;
    Alcotest.test_case "detach success silent" `Quick test_detach_success_silent;
    Alcotest.test_case "race losers cancelled" `Quick test_race_losers_cancelled;
    Alcotest.test_case "disabled outside run" `Quick test_disabled_outside_run;
  ]
