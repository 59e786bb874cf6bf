open Fdb_sim
open Future.Syntax

let test_time_advances () =
  let final =
    Engine.run (fun () ->
        let* () = Engine.sleep 1.5 in
        let* () = Engine.sleep 2.5 in
        Future.return (Engine.now ()))
  in
  Alcotest.(check (float 1e-9)) "virtual time" 4.0 final

let test_ordering_fifo_at_same_time () =
  let order =
    Engine.run (fun () ->
        let acc = ref [] in
        Engine.schedule (fun () -> acc := 1 :: !acc);
        Engine.schedule (fun () -> acc := 2 :: !acc);
        Engine.schedule ~after:0.0 (fun () -> acc := 3 :: !acc);
        let* () = Engine.sleep 0.1 in
        Future.return (List.rev !acc))
  in
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3 ] order

let test_deadlock_detected () =
  Alcotest.check_raises "deadlock" Engine.Deadlock (fun () ->
      Engine.run (fun () ->
          let f, _p = Future.make () in
          f))

let test_deterministic_runs () =
  let run_once seed =
    Engine.run ~seed (fun () ->
        let acc = ref [] in
        let rec actor name n =
          if n = 0 then Future.return ()
          else
            let* () = Engine.sleep (Engine.random_float 1.0) in
            acc := (name, Engine.now ()) :: !acc;
            actor name (n - 1)
        in
        let* () = Future.all_unit [ actor "a" 20; actor "b" 20 ] in
        Future.return (List.rev !acc))
  in
  Alcotest.(check bool) "same seed same schedule" true (run_once 99L = run_once 99L);
  Alcotest.(check bool) "different seed different schedule" true
    (run_once 99L <> run_once 100L)

let test_timeout_fires () =
  let r =
    Engine.run (fun () ->
        let f, _p = Future.make () in
        Future.catch
          (fun () -> Future.map (Engine.timeout 1.0 f) (fun _ -> `Ok))
          (function Engine.Timed_out -> Future.return `Timeout | e -> raise e))
  in
  Alcotest.(check bool) "timed out" true (r = `Timeout)

let test_timeout_win () =
  let r =
    Engine.run (fun () ->
        let f, p = Future.make () in
        Engine.schedule ~after:0.5 (fun () -> Future.fulfill p 42);
        Engine.timeout 1.0 f)
  in
  Alcotest.(check int) "value before timeout" 42 r

let test_kill_drops_tasks () =
  let r =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p = Process.create ~name:"victim" m in
        let hits = ref 0 in
        Engine.schedule ~after:1.0 ~process:p (fun () -> incr hits);
        Engine.schedule ~after:0.5 (fun () -> Engine.kill p);
        let* () = Engine.sleep 2.0 in
        Future.return !hits)
  in
  Alcotest.(check int) "task dropped after kill" 0 r

let test_reboot_runs_boot_and_invalidates () =
  let r =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p = Process.create ~name:"victim" m in
        let boots = ref 0 in
        p.Process.boot <- (fun () -> incr boots);
        let stale = ref 0 in
        Engine.schedule ~after:2.0 ~process:p (fun () -> incr stale);
        Engine.schedule ~after:0.5 (fun () -> Engine.reboot p ~delay:0.1 ());
        let* () = Engine.sleep 5.0 in
        Future.return (!boots, !stale))
  in
  Alcotest.(check (pair int int)) "boot ran, stale dropped" (1, 0) r

let test_reboot_hooks_run () =
  let r =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p = Process.create m in
        let cleaned = ref false in
        Process.on_reboot p (fun () -> cleaned := true);
        Engine.kill p;
        Future.return !cleaned)
  in
  Alcotest.(check bool) "hook ran" true r

let test_cpu_queueing () =
  (* Two 1-second jobs on the same core: the second finishes at t=2. *)
  let r =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p = Process.create m in
        let t1 = ref 0.0 and t2 = ref 0.0 in
        let job t_out () =
          let* () = Engine.cpu p 1.0 in
          t_out := Engine.now ();
          Future.return ()
        in
        let f1 = job t1 () in
        let f2 = job t2 () in
        let* () = Future.all_unit [ f1; f2 ] in
        Future.return (!t1, !t2))
  in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "fcfs queue" (1.0, 2.0) r

let test_cpu_idle_skips () =
  let r =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p = Process.create m in
        let* () = Engine.sleep 10.0 in
        let* () = Engine.cpu p 0.5 in
        Future.return (Engine.now ()))
  in
  Alcotest.(check (float 1e-9)) "no retroactive queue" 10.5 r

let test_spawn_error_traced () =
  Engine.run (fun () ->
      Engine.spawn "bad-actor" (fun () -> Future.fail Exit);
      let* () = Engine.sleep 0.1 in
      Future.return ());
  (* trace was reset by run; rerun capturing inside *)
  let count =
    Engine.run (fun () ->
        Engine.spawn "bad-actor" (fun () -> Future.fail Exit);
        let* () = Engine.sleep 0.1 in
        Future.return (Trace.count "actor_error"))
  in
  Alcotest.(check int) "actor error traced" 1 count

let test_max_time_guard () =
  (* The guard ends a buggified run by an exception after it has made
     processes, fired more points and leaked a promise; none of that
     reaches the next run, so the same seed observes what it did before. *)
  let points n = List.init n (fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) in
  let fire names = List.iter (fun name -> ignore (Buggify.on ~p:1.0 name : bool)) names in
  let observe () =
    let pid =
      Engine.run ~seed:7L ~buggify:true (fun () ->
          let p = Process.create (Process.fresh_machine 1) in
          fire (points 8);
          Future.return p.Process.pid)
    in
    (pid, Engine.last_run_checksum (), Buggify.points_hit (), Engine.last_run_lifecycle ())
  in
  let first = observe () in
  Alcotest.(check bool) "max_time raises" true
    (try
       Engine.run ~seed:7L ~buggify:true ~max_time:10.0 (fun () ->
           let m = Process.fresh_machine 1 in
           let rec loop () =
             let p = Process.create m in
             let fut, _ = Future.make ~label:"test.guard" () in
             Engine.with_process p (fun () -> Future.on_resolve fut (fun _ -> ()));
             fire (List.rev (points 26));
             let* () = Engine.sleep 1.0 in
             loop ()
           in
           loop ())
     with Failure _ -> true);
  Alcotest.(check bool) "same seed, same run after the abort" true (first = observe ())

let test_no_nested_runs () =
  let rejected, outer =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p1 = Process.create m in
        Trace.emit "outer" [];
        let* () = Engine.sleep 1.0 in
        let rejected =
          try Engine.run (fun () -> Future.return false) with Failure _ -> true
        in
        Trace.emit "outer" [];
        let p2 = Process.create m in
        let* () = Engine.sleep 1.0 in
        Future.return
          (rejected, (Trace.count "outer", p2.Process.pid - p1.Process.pid, Engine.now ())))
  in
  Alcotest.(check bool) "nested run rejected" true rejected;
  Alcotest.(check (triple int int (float 1e-9)))
    "outer trace, pids and clock undisturbed" (2, 1, 2.0) outer

let test_buggify_off_by_default () =
  let fired =
    Engine.run (fun () -> Future.return (Buggify.on ~p:1.0 "test_point"))
  in
  Alcotest.(check bool) "inert without buggify" false fired

let test_buggify_fires_when_enabled () =
  (* With p=1.0 per evaluation, an activated point always fires; activation
     is ~25% per run, so across seeds some run must fire. *)
  let fired_any = ref false in
  for seed = 1 to 40 do
    let fired =
      Engine.run ~seed:(Int64.of_int seed) ~buggify:true (fun () ->
          Future.return (Buggify.on ~p:1.0 "test_point"))
    in
    if fired then begin
      fired_any := true;
      Alcotest.(check bool) "inert once the run is over" false (Buggify.on ~p:1.0 "test_point")
    end
  done;
  Alcotest.(check bool) "fires under some seed" true !fired_any

let suite =
  [
    Alcotest.test_case "time advances" `Quick test_time_advances;
    Alcotest.test_case "fifo ties" `Quick test_ordering_fifo_at_same_time;
    Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
    Alcotest.test_case "deterministic runs" `Quick test_deterministic_runs;
    Alcotest.test_case "timeout fires" `Quick test_timeout_fires;
    Alcotest.test_case "timeout win" `Quick test_timeout_win;
    Alcotest.test_case "kill drops tasks" `Quick test_kill_drops_tasks;
    Alcotest.test_case "reboot boots and invalidates" `Quick test_reboot_runs_boot_and_invalidates;
    Alcotest.test_case "reboot hooks" `Quick test_reboot_hooks_run;
    Alcotest.test_case "cpu queueing" `Quick test_cpu_queueing;
    Alcotest.test_case "cpu idle skips" `Quick test_cpu_idle_skips;
    Alcotest.test_case "spawn error traced" `Quick test_spawn_error_traced;
    Alcotest.test_case "max_time guard" `Quick test_max_time_guard;
    Alcotest.test_case "no nested runs" `Quick test_no_nested_runs;
    Alcotest.test_case "buggify off by default" `Quick test_buggify_off_by_default;
    Alcotest.test_case "buggify fires when enabled" `Quick test_buggify_fires_when_enabled;
  ]
