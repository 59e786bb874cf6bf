open Fdb_workloads
module S = Serializability_checker

let txn rv cv reads writes =
  {
    S.rc_read_version = rv;
    rc_commit_version = cv;
    rc_reads = reads;
    rc_writes = writes;
  }

let test_checker_accepts_serial () =
  let c = S.create () in
  S.record c (txn 0L 10L [] [ ("k", Some "a") ]);
  S.record c (txn 10L 20L [ ("k", Some "a") ] [ ("k", Some "b") ]);
  S.record c (txn 25L 30L [ ("k", Some "b") ] []);
  Alcotest.(check bool) "serial history ok" true (S.verify c = Ok ())

let test_checker_rejects_stale_read () =
  let c = S.create () in
  S.record c (txn 0L 10L [] [ ("k", Some "a") ]);
  S.record c (txn 10L 20L [] [ ("k", Some "b") ]);
  (* reads at rv=25 but observes the value overwritten at cv=20 *)
  S.record c (txn 25L 30L [ ("k", Some "a") ] []);
  Alcotest.(check bool) "stale read detected" true (S.verify c <> Ok ())

let test_checker_rejects_phantom () =
  let c = S.create () in
  S.record c (txn 5L 10L [ ("k", Some "ghost") ] []);
  Alcotest.(check bool) "phantom detected" true (S.verify c <> Ok ())

let test_checker_accepts_absent () =
  let c = S.create () in
  S.record c (txn 5L 10L [ ("k", None) ] [ ("k", Some "v") ]);
  S.record c (txn 15L 20L [ ("k", Some "v") ] []);
  Alcotest.(check bool) "absent then value" true (S.verify c = Ok ())

let test_checker_same_version_ties () =
  (* Batched transactions share a commit version; either value may win. *)
  let c = S.create () in
  S.record c (txn 0L 10L [] [ ("k", Some "x") ]);
  S.record c (txn 0L 10L [] [ ("k", Some "y") ]);
  S.record c (txn 15L 20L [ ("k", Some "y") ] []);
  Alcotest.(check bool) "tie accepted" true (S.verify c = Ok ());
  let c2 = S.create () in
  S.record c2 (txn 0L 10L [] [ ("k", Some "x") ]);
  S.record c2 (txn 0L 10L [] [ ("k", Some "y") ]);
  S.record c2 (txn 15L 20L [ ("k", Some "z") ] []);
  Alcotest.(check bool) "non-candidate rejected" true (S.verify c2 <> Ok ())

let test_checker_clear_visible () =
  let c = S.create () in
  S.record c (txn 0L 10L [] [ ("k", Some "v") ]);
  S.record c (txn 10L 20L [] [ ("k", None) ]);
  S.record c (txn 25L 30L [ ("k", None) ] []);
  Alcotest.(check bool) "clear observed" true (S.verify c = Ok ())

let qcheck_checker_accepts_any_true_serial_history =
  (* Generate a random serial history over a tiny key space, derive reads
     from the true state; the checker must accept. *)
  QCheck.Test.make ~name:"checker accepts generated serial histories" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) (pair (int_range 0 4) small_nat)))
    (fun ops ->
      let c = S.create () in
      let state = Hashtbl.create 8 in
      List.iteri
        (fun i (k, v) ->
          let key = "k" ^ string_of_int k in
          let rv = Int64.of_int (i * 10) in
          let cv = Int64.of_int ((i * 10) + 5) in
          let observed = Hashtbl.find_opt state key in
          let value = Printf.sprintf "v%d" v in
          S.record c (txn rv cv [ (key, observed) ] [ (key, Some value) ]);
          Hashtbl.replace state key value)
        ops;
      S.verify c = Ok ())

(* ---------- skewed key generators: distribution shape ---------- *)

let keygen_masses gen ~seed ~draws ~n =
  let rng = Fdb_util.Det_rng.create (Int64.of_int seed) in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Random_ops.Keygen.next_rank gen rng in
    counts.(r) <- counts.(r) + 1
  done;
  counts

let qcheck_zipfian_top_mass =
  (* Zipf(1.0) over 1000 keys: the hottest 1% of ranks must carry far more
     than their uniform share (analytically ~39%; we assert a safe 25%). *)
  QCheck.Test.make ~name:"zipfian concentrates mass in the top 1%" ~count:20
    QCheck.(make Gen.(int_range 1 1_000_000))
    (fun seed ->
      let n = 1000 and draws = 20_000 in
      let gen = Random_ops.Keygen.zipfian ~n ~theta:1.0 in
      let counts = keygen_masses gen ~seed ~draws ~n in
      let top = ref 0 in
      for i = 0 to (n / 100) - 1 do
        top := !top + counts.(i)
      done;
      float_of_int !top /. float_of_int draws >= 0.25)

let qcheck_hot_key_mass =
  QCheck.Test.make ~name:"hot-key generator respects hot_prob" ~count:20
    QCheck.(make Gen.(int_range 1 1_000_000))
    (fun seed ->
      let n = 1000 and draws = 20_000 in
      let gen = Random_ops.Keygen.hot_key ~n ~hot:10 ~hot_prob:0.9 in
      let counts = keygen_masses gen ~seed ~draws ~n in
      let hot = ref 0 in
      for i = 0 to 9 do
        hot := !hot + counts.(i)
      done;
      let frac = float_of_int !hot /. float_of_int draws in
      frac >= 0.85 && frac <= 0.95)

let qcheck_sequential_monotone =
  QCheck.Test.make ~name:"sequential generator emits strictly increasing keys" ~count:20
    QCheck.(make Gen.(pair (int_range 0 1000) (int_range 2 200)))
    (fun (start, draws) ->
      let gen = Random_ops.Keygen.sequential ~start () in
      let rng = Fdb_util.Det_rng.create 1L in
      let keys =
        List.init draws (fun _ -> Random_ops.Keygen.next_key ~prefix:"seq/" gen rng)
      in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      (* zero-padding makes lexicographic order = numeric order *)
      increasing keys
      && List.hd keys = Printf.sprintf "seq/%09d" start)

let test_bank_and_ring_in_sim () =
  let open Fdb_sim in
  let open Fdb_core in
  let open Future.Syntax in
  let r =
    Engine.run ~seed:77L ~max_time:1e4 (fun () ->
        let cluster = Cluster.create ~config:Config.test_small () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"w" in
        let* () = Bank.setup db ~accounts:10 ~initial:50 in
        let* () = Ring.setup db ~n:8 in
        let rng = Engine.fork_rng () in
        let until = Engine.now () +. 3.0 in
        let* _ = Bank.transfer_loop db ~accounts:10 ~until ~rng in
        let* _ = Ring.rotate_loop db ~n:8 ~until:(Engine.now () +. 3.0) ~rng in
        let* b = Bank.check db ~accounts:10 ~expected_total:500 in
        let* g = Ring.check db ~n:8 in
        Future.return (b, g))
  in
  (match fst r with Ok () -> () | Error m -> Alcotest.fail ("bank: " ^ m));
  match snd r with Ok () -> () | Error m -> Alcotest.fail ("ring: " ^ m)

let test_status_report () =
  let open Fdb_sim in
  let open Fdb_core in
  let open Future.Syntax in
  let st =
    Engine.run ~seed:88L ~max_time:1e4 (fun () ->
        let cluster = Cluster.create ~config:Config.test_small () in
        let* () = Cluster.wait_ready cluster in
        Status.gather cluster)
  in
  Alcotest.(check bool) "recovered" true st.Status.st_recovered;
  Alcotest.(check bool) "epoch >= 1" true (st.Status.st_epoch >= 1);
  Alcotest.(check int) "all storage responsive" st.Status.st_storage_total
    st.Status.st_storage_responsive

let suite =
  [
    Alcotest.test_case "status report" `Quick test_status_report;
    Alcotest.test_case "checker accepts serial" `Quick test_checker_accepts_serial;
    Alcotest.test_case "checker rejects stale read" `Quick test_checker_rejects_stale_read;
    Alcotest.test_case "checker rejects phantom" `Quick test_checker_rejects_phantom;
    Alcotest.test_case "checker accepts absent" `Quick test_checker_accepts_absent;
    Alcotest.test_case "checker same-version ties" `Quick test_checker_same_version_ties;
    Alcotest.test_case "checker clear visible" `Quick test_checker_clear_visible;
    Property.to_alcotest qcheck_checker_accepts_any_true_serial_history;
    Property.to_alcotest qcheck_zipfian_top_mass;
    Property.to_alcotest qcheck_hot_key_mass;
    Property.to_alcotest qcheck_sequential_monotone;
    Alcotest.test_case "bank+ring on small cluster" `Quick test_bank_and_ring_in_sim;
  ]
