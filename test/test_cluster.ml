open Fdb_sim
open Fdb_core
open Future.Syntax

let with_cluster ?(seed = 1L) ?(config = Config.default) body =
  Engine.run ~seed ~max_time:1e5 (fun () ->
      let cluster = Cluster.create ~config () in
      let* () = Cluster.wait_ready cluster in
      body cluster)

let test_boot_and_ready () =
  let epoch =
    with_cluster (fun cluster ->
        let* e = Cluster.current_epoch cluster in
        Future.return e)
  in
  Alcotest.(check bool) "first generation recovered" true (epoch >= 1)

let test_set_get () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c1" in
        let* _v =
          Client.run db (fun tx ->
              Client.set tx "hello" "world";
              Client.set tx "foo" "bar";
              Future.return ())
        in
        Client.run db (fun tx ->
            let* a = Client.get tx "hello" in
            let* b = Client.get tx "foo" in
            let* c = Client.get tx "missing" in
            Future.return (a, b, c)))
  in
  let a, b, c = r in
  Alcotest.(check (option string)) "hello" (Some "world") a;
  Alcotest.(check (option string)) "foo" (Some "bar") b;
  Alcotest.(check (option string)) "missing" None c

let test_read_your_writes () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c1" in
        Client.run db (fun tx ->
            Client.set tx "k" "v1";
            let* v1 = Client.get tx "k" in
            Client.clear tx "k";
            let* v2 = Client.get tx "k" in
            Client.set tx "k" "v3";
            let* v3 = Client.get tx "k" in
            Future.return (v1, v2, v3)))
  in
  let v1, v2, v3 = r in
  Alcotest.(check (option string)) "after set" (Some "v1") v1;
  Alcotest.(check (option string)) "after clear" None v2;
  Alcotest.(check (option string)) "after re-set" (Some "v3") v3

let test_get_range () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c1" in
        let* _ =
          Client.run db (fun tx ->
              for i = 0 to 9 do
                Client.set tx (Printf.sprintf "range/%02d" i) (string_of_int i)
              done;
              Future.return ())
        in
        Client.run db (fun tx ->
            let* all = Client.range_all tx (Range_query.prefix "range/" ()) in
            let* limited =
              Client.range_all tx (Range_query.prefix ~limit:3 "range/" ())
            in
            let* rev =
              Client.range_all tx (Range_query.prefix ~limit:2 ~reverse:true "range/" ())
            in
            Future.return (all, limited, rev)))
  in
  let all, limited, rev = r in
  Alcotest.(check int) "all" 10 (List.length all);
  Alcotest.(check (list string)) "limited keys" [ "range/00"; "range/01"; "range/02" ]
    (List.map fst limited);
  Alcotest.(check (list string)) "reverse keys" [ "range/09"; "range/08" ]
    (List.map fst rev)

let test_clear_range () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c1" in
        let* _ =
          Client.run db (fun tx ->
              for i = 0 to 9 do
                Client.set tx (Printf.sprintf "cr/%02d" i) "x"
              done;
              Future.return ())
        in
        let* _ =
          Client.run db (fun tx ->
              Client.clear_range tx ~from:"cr/02" ~until:"cr/07";
              Future.return ())
        in
        Client.run db (fun tx ->
            Client.range_all tx (Range_query.prefix "cr/" ())))
  in
  Alcotest.(check (list string)) "survivors"
    [ "cr/00"; "cr/01"; "cr/07"; "cr/08"; "cr/09" ]
    (List.map fst r)

let test_conflict_detected () =
  (* Two interleaved transactions reading and writing the same key: exactly
     one must commit, the other must see Not_committed (and run's retry
     then succeeds). We use raw transactions to observe the conflict. *)
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c1" in
        let* _ = Client.run db (fun tx -> Client.set tx "ctr" "0"; Future.return ()) in
        let t1 = Client.begin_tx db in
        let t2 = Client.begin_tx db in
        let* _ = Client.get t1 "ctr" in
        let* _ = Client.get t2 "ctr" in
        Client.set t1 "ctr" "1";
        Client.set t2 "ctr" "2";
        let* r1 =
          Future.catch
            (fun () -> Future.map (Client.commit t1) (fun _ -> `Committed))
            (function Error.Fdb Error.Not_committed -> Future.return `Conflict | e -> raise e)
        in
        let* r2 =
          Future.catch
            (fun () -> Future.map (Client.commit t2) (fun _ -> `Committed))
            (function Error.Fdb Error.Not_committed -> Future.return `Conflict | e -> raise e)
        in
        Future.return (r1, r2))
  in
  (match r with
  | `Committed, `Conflict | `Conflict, `Committed -> ()
  | `Committed, `Committed -> Alcotest.fail "both committed: serializability violated"
  | `Conflict, `Conflict -> Alcotest.fail "both aborted: progress violated")

let test_snapshot_read_no_conflict () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c1" in
        let* _ = Client.run db (fun tx -> Client.set tx "sk" "0"; Future.return ()) in
        let t1 = Client.begin_tx db in
        let* _ = Client.get ~snapshot:true t1 "sk" in
        Client.set t1 "other" "x";
        (* A concurrent write to sk would normally conflict with t1. *)
        let* _ = Client.run db (fun tx -> Client.set tx "sk" "1"; Future.return ()) in
        Future.catch
          (fun () -> Future.map (Client.commit t1) (fun _ -> `Committed))
          (function Error.Fdb Error.Not_committed -> Future.return `Conflict | e -> raise e))
  in
  Alcotest.(check bool) "snapshot read does not conflict" true (r = `Committed)

let test_atomic_add_concurrent () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c1" in
        let le_one = String.init 8 (fun i -> if i = 0 then '\x01' else '\x00') in
        let incr () =
          Client.run db (fun tx ->
              Client.atomic_op tx Fdb_kv.Mutation.Add "counter" le_one;
              Future.return ())
        in
        let jobs = List.init 20 (fun _ -> incr ()) in
        let* _ = Future.all jobs in
        Client.run db (fun tx -> Client.get tx "counter"))
  in
  match r with
  | Some bytes ->
      Alcotest.(check int) "counter = 20" 20 (Char.code bytes.[0])
  | None -> Alcotest.fail "counter missing"

let test_versionstamped_key () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c1" in
        let* _ =
          Client.run db (fun tx ->
              Client.set_versionstamped_key tx
                ~template:("log/" ^ Client.versionstamp_placeholder)
                ~offset:4 ~value:"first";
              Future.return ())
        in
        let* _ =
          Client.run db (fun tx ->
              Client.set_versionstamped_key tx
                ~template:("log/" ^ Client.versionstamp_placeholder)
                ~offset:4 ~value:"second";
              Future.return ())
        in
        Client.run db (fun tx -> Client.range_all tx (Range_query.prefix "log/" ())))
  in
  Alcotest.(check int) "two stamped keys" 2 (List.length r);
  Alcotest.(check (list string)) "order follows commit order" [ "first"; "second" ]
    (List.map snd r)

let test_blind_write_commits () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c1" in
        let t = Client.begin_tx db in
        Client.set t "blind" "w";
        let* v = Client.commit t in
        Future.return v)
  in
  Alcotest.(check bool) "got commit version" true (r > 0L)

let test_read_only_commits_locally () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c1" in
        Client.run db (fun tx ->
            let* _ = Client.get tx "nothing" in
            Future.return ()))
  in
  Alcotest.(check unit) "read-only ok" () r

let test_key_limits () =
  with_cluster (fun cluster ->
      let db = Cluster.client cluster ~name:"c1" in
      let t = Client.begin_tx db in
      Alcotest.check_raises "huge key" (Error.Fdb Error.Key_too_large) (fun () ->
          Client.set t (String.make 10_001 'k') "v");
      Alcotest.check_raises "huge value" (Error.Fdb Error.Value_too_large) (fun () ->
          Client.set t "k" (String.make 100_001 'v'));
      Alcotest.check_raises "system key" (Error.Fdb Error.Key_outside_legal_range)
        (fun () -> Client.set t "\xff/system" "v");
      Future.return ())


(* End-to-end observability: after a committed workload the metrics-backed
   status report must show the traffic and a healthy storage plane. *)
let test_status_reflects_workload () =
  let st =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c1" in
        let* _ =
          Client.run db (fun tx ->
              for i = 0 to 19 do
                Client.set tx (Printf.sprintf "obs/%02d" i) (string_of_int i)
              done;
              Future.return ())
        in
        (* Let the storage heartbeat gauges tick so responsiveness and lag
           come from fresh samples. *)
        let* () = Engine.sleep 1.0 in
        Fdb_workloads.Status.gather cluster)
  in
  let open Fdb_workloads.Status in
  Alcotest.(check bool) "commits counted" true (st.st_commits > 0);
  Alcotest.(check bool) "grv served" true (st.st_grv_served >= st.st_commits);
  Alcotest.(check int) "all storage responsive" st.st_storage_total st.st_storage_responsive;
  Alcotest.(check bool) "storage lag bounded" true
    (st.st_max_lag >= 0.0 && st.st_max_lag < 5.0);
  Alcotest.(check bool) "commit latency measured" true (st.st_commit_p50 > 0.0);
  Alcotest.(check bool) "p99 dominates p50" true (st.st_commit_p99 >= st.st_commit_p50);
  Alcotest.(check bool) "rate budget positive" true (st.st_rate > 0.0)

let suite =
  [
    Alcotest.test_case "boot and ready" `Quick test_boot_and_ready;
    Alcotest.test_case "status reflects workload" `Quick test_status_reflects_workload;
    Alcotest.test_case "set/get" `Quick test_set_get;
    Alcotest.test_case "read your writes" `Quick test_read_your_writes;
    Alcotest.test_case "get_range" `Quick test_get_range;
    Alcotest.test_case "clear_range" `Quick test_clear_range;
    Alcotest.test_case "conflict detected" `Quick test_conflict_detected;
    Alcotest.test_case "snapshot read no conflict" `Quick test_snapshot_read_no_conflict;
    Alcotest.test_case "atomic add concurrent" `Quick test_atomic_add_concurrent;
    Alcotest.test_case "versionstamped key" `Quick test_versionstamped_key;
    Alcotest.test_case "blind write" `Quick test_blind_write_commits;
    Alcotest.test_case "read-only local commit" `Quick test_read_only_commits_locally;
    Alcotest.test_case "key limits" `Quick test_key_limits;
  ]
