(* Direct Resolver unit tests: Algorithm 1 verdicts, within-batch conflicts,
   out-of-order batch parking, duplicate replay, range partitioning. *)

open Fdb_sim
open Fdb_core
open Future.Syntax

let setup ?(range = ("", Types.system_key_space_end)) () =
  let ctx = Test_log_server.mini_ctx () in
  let machine = Process.fresh_machine 1 in
  let proc = Process.create ~name:"resolver-test" machine in
  let client = Process.create ~name:"proxy-test" machine in
  let _, ep = Resolver.create ctx proc ~epoch:1 ~range ~start_lsn:0L in
  let resolve_raw lsn prev txns =
    Context.rpc ctx ~timeout:5.0 ~from:client ep
      (Message.Resolve_req
         { rs_epoch = 1; rs_lsn = lsn; rs_prev = prev; rs_txns = Array.of_list txns })
  in
  let resolve lsn prev txns =
    let+ v = resolve_raw lsn prev txns in
    Array.to_list v
  in
  (resolve, resolve_raw)

let single_key k = (k, Types.next_key k)

let test_no_conflict_then_conflict () =
  let r =
    Engine.run (fun () ->
        let resolve, _ = setup () in
        (* t1 writes k at version 10. *)
        let* v1 = resolve 10L 0L [ (5L, [], [ single_key "k" ]) ] in
        (* t2 read k at rv=5 (before the write committed) -> conflict;
           t3 read k at rv=15 (after) -> commit. *)
        let* v2 = resolve 20L 10L [ (5L, [ single_key "k" ], []) ] in
        let* v3 = resolve 30L 20L [ (15L, [ single_key "k" ], []) ] in
        Future.return (v1, v2, v3))
  in
  let v1, v2, v3 = r in
  Alcotest.(check bool) "write admitted" true (v1 = [ Message.V_commit ]);
  Alcotest.(check bool) "stale read conflicts" true (v2 = [ Message.V_conflict ]);
  Alcotest.(check bool) "fresh read commits" true (v3 = [ Message.V_commit ])

let test_within_batch_conflict () =
  let r =
    Engine.run (fun () ->
        let resolve, _ = setup () in
        (* Same batch: t1 writes k; t2 (later in batch) read k at an older
           rv — the paper's Algorithm 1 applies writes between checks. *)
        let* v =
          resolve 10L 0L
            [ (5L, [], [ single_key "k" ]); (5L, [ single_key "k" ], []) ]
        in
        Future.return v)
  in
  Alcotest.(check bool) "later txn sees earlier batch write" true
    (r = [ Message.V_commit; Message.V_conflict ])

let test_out_of_order_batches_park () =
  let r =
    Engine.run (fun () ->
        let resolve, _ = setup () in
        let late = resolve 20L 10L [ (15L, [ single_key "k" ], []) ] in
        let* () = Engine.sleep 0.01 in
        Alcotest.(check bool) "parked until chain fills" true (Future.is_pending late);
        let* _ = resolve 10L 0L [ (5L, [], [ single_key "k" ]) ] in
        late)
  in
  Alcotest.(check bool) "processed after predecessor" true (r = [ Message.V_commit ])

let test_duplicate_park_rejected () =
  let r =
    Engine.run (fun () ->
        let _, resolve_raw = setup () in
        (* Two deliveries waiting on the same missing predecessor: the first
           parks; the reordered duplicate must be rejected rather than
           overwrite the parked promise (which would strand the first waiter
           forever — the lost-wakeup bug). *)
        let late = resolve_raw 20L 10L [ (15L, [ single_key "k" ], []) ] in
        let* () = Engine.sleep 0.01 in
        let* dup_rejected =
          Future.catch
            (fun () ->
              let* _ = resolve_raw 20L 10L [ (15L, [ single_key "k" ], []) ] in
              Future.return false)
            (function
              | Error.Fdb (Error.Internal _) -> Future.return true
              | e -> Future.fail e)
        in
        let dups_traced = Trace.count "resolver_park_dup" in
        (* The original parked batch still completes once the chain fills. *)
        let* _ = resolve_raw 10L 0L [ (5L, [], [ single_key "k" ]) ] in
        let* late = late in
        let late_ok = Array.to_list late = [ Message.V_commit ] in
        Future.return (dup_rejected, dups_traced, late_ok))
  in
  let dup_rejected, dups_traced, late_ok = r in
  Alcotest.(check bool) "duplicate park rejected" true dup_rejected;
  Alcotest.(check int) "resolver_park_dup traced" 1 dups_traced;
  Alcotest.(check bool) "original waiter still woken" true late_ok

let test_duplicate_replay_same_verdict () =
  let r =
    Engine.run (fun () ->
        let resolve, _ = setup () in
        let txns = [ (5L, [], [ single_key "k" ]) ] in
        let* v1 = resolve 10L 0L txns in
        let* v2 = resolve 10L 0L txns in
        Future.return (v1 = v2))
  in
  Alcotest.(check bool) "cached verdict replayed" true r

let test_range_partition_ignores_foreign_keys () =
  let r =
    Engine.run (fun () ->
        (* Resolver owns only [m, z): conflicts on "a" are not its job. *)
        let resolve, _ = setup ~range:("m", "z") () in
        let* _ = resolve 10L 0L [ (5L, [], [ single_key "a" ]) ] in
        let* v = resolve 20L 10L [ (5L, [ single_key "a" ], []) ] in
        Future.return v)
  in
  Alcotest.(check bool) "foreign range clipped away" true (r = [ Message.V_commit ])

let test_blind_write_never_too_old () =
  let r =
    Engine.run (fun () ->
        let resolve, _ = setup () in
        (* Push the window far ahead, then a blind write with rv=0. *)
        let* _ = resolve 20_000_000L 0L [ (19_000_000L, [], [ single_key "k" ]) ] in
        let* () = Engine.sleep 2.0 in
        (* expiry loop has raised the floor past 0 *)
        let* v = resolve 20_000_010L 20_000_000L [ (0L, [], [ single_key "j" ]) ] in
        let* v2 = resolve 20_000_020L 20_000_010L [ (0L, [ single_key "j" ], []) ] in
        Future.return (v, v2))
  in
  Alcotest.(check bool) "blind write commits" true (fst r = [ Message.V_commit ]);
  Alcotest.(check bool) "ancient read is too old" true (snd r = [ Message.V_too_old ])

(* A batch whose predecessor never comes (its proxy's generation ended):
   once the sender's resolve RPC has timed out, the resolver answers the
   waiter with a rejection instead of holding the parked promise until the
   simulation ends. *)
let test_orphan_park_released () =
  let r =
    Engine.run (fun () ->
        let _, resolve_raw = setup () in
        let t0 = Engine.now () in
        let* rejected =
          Future.catch
            (fun () ->
              let* _ = resolve_raw 20L 10L [ (15L, [ single_key "k" ], []) ] in
              Future.return None)
            (function
              | Error.Fdb (Error.Internal _) -> Future.return (Some (Engine.now () -. t0))
              | e -> Future.fail e)
        in
        Future.return rejected)
  in
  (match r with
  | None -> Alcotest.fail "orphaned batch was answered"
  | Some dt ->
      Alcotest.(check bool) "rejected once the sender gave up" true
        (dt >= Resolver.resolve_timeout && dt < Resolver.resolve_timeout +. 0.01));
  Alcotest.(check int) "no leaked park" 0
    (Future.Lifecycle.total_leaks (Engine.last_run_lifecycle ()))

(* The rejection answers only the waiter: a predecessor that arrives after
   the timeout, while the generation is still live, unparks the batch and
   the chain moves on. *)
let test_late_predecessor_unparks () =
  let r =
    Engine.run (fun () ->
        let ctx = Test_log_server.mini_ctx () in
        let machine = Process.fresh_machine 1 in
        let proc = Process.create ~name:"resolver-test" machine in
        let client = Process.create ~name:"proxy-test" machine in
        let resolver, ep =
          Resolver.create ctx proc ~epoch:1 ~range:("", Types.system_key_space_end)
            ~start_lsn:0L
        in
        let resolve_raw lsn prev txns =
          Context.rpc ctx ~timeout:5.0 ~from:client ep
            (Message.Resolve_req
               { rs_epoch = 1; rs_lsn = lsn; rs_prev = prev; rs_txns = Array.of_list txns })
        in
        let parked =
          Future.catch
            (fun () ->
              let* _ = resolve_raw 20L 10L [ (15L, [ single_key "k" ], []) ] in
              Future.return false)
            (function Error.Fdb (Error.Internal _) -> Future.return true | e -> Future.fail e)
        in
        let* () = Engine.sleep (Resolver.resolve_timeout +. 0.5) in
        let* rejected = parked in
        let* _ = resolve_raw 10L 0L [ (5L, [], [ single_key "k" ]) ] in
        let* () = Engine.sleep 0.01 in
        let reached = Resolver.last_lsn resolver in
        let* next = resolve_raw 30L 20L [ (25L, [ single_key "k" ], []) ] in
        Future.return (rejected, reached, next))
  in
  let rejected, reached, next = r in
  Alcotest.(check bool) "waiter rejected at the timeout" true rejected;
  Alcotest.(check int64) "late predecessor moves the chain past the batch" 20L reached;
  Alcotest.(check bool) "next batch on prev 20 answered" true
    (Array.to_list next = [ Message.V_commit ])

let suite =
  [
    Alcotest.test_case "conflict detection" `Quick test_no_conflict_then_conflict;
    Alcotest.test_case "within-batch conflict" `Quick test_within_batch_conflict;
    Alcotest.test_case "out-of-order parking" `Quick test_out_of_order_batches_park;
    Alcotest.test_case "duplicate park rejected" `Quick test_duplicate_park_rejected;
    Alcotest.test_case "orphaned park released" `Quick test_orphan_park_released;
    Alcotest.test_case "late predecessor unparks" `Quick test_late_predecessor_unparks;
    Alcotest.test_case "duplicate replay" `Quick test_duplicate_replay_same_verdict;
    Alcotest.test_case "range partitioning" `Quick test_range_partition_ignores_foreign_keys;
    Alcotest.test_case "blind writes vs window floor" `Quick test_blind_write_never_too_old;
  ]
