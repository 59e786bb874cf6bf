(* TaskBucket (§6.4): atomic claim+execute+subdivide, the backup pattern. *)

open Fdb_sim
open Fdb_core
open Future.Syntax

let with_db body =
  Engine.run ~seed:61L ~max_time:1e5 (fun () ->
      let cluster = Cluster.create ~config:Config.test_small () in
      let* () = Cluster.wait_ready cluster in
      body cluster (Cluster.client cluster ~name:"tb"))

let test_fifo_and_atomic_enqueue () =
  let r =
    with_db (fun _ db ->
        let tb = Task_bucket.create ~prefix:"jobs" in
        let* _ =
          Client.run db (fun tx ->
              (* tasks enqueue atomically with application writes *)
              Client.set tx "app/state" "launched";
              Task_bucket.add tx tb ~payload:"one";
              Future.return ())
        in
        let* _ =
          Client.run db (fun tx ->
              Task_bucket.add tx tb ~payload:"two";
              Future.return ())
        in
        let seen = ref [] in
        let* n =
          Task_bucket.drain db tb ~f:(fun _tx payload ->
              seen := payload :: !seen;
              Future.return [])
        in
        Future.return (n, List.rev !seen))
  in
  Alcotest.(check int) "two ran" 2 (fst r);
  Alcotest.(check (list string)) "commit order" [ "one"; "two" ] (snd r)

let test_subdivision_backup_pattern () =
  (* §6.4's backup: one task scanning the whole space subdivides into
     per-range tasks, each small enough for one transaction. *)
  let r =
    with_db (fun _ db ->
        let* _ =
          Client.run db (fun tx ->
              for i = 0 to 49 do
                Client.set tx (Printf.sprintf "data/%03d" i) (string_of_int i)
              done;
              Future.return ())
        in
        let tb = Task_bucket.create ~prefix:"backup" in
        let* _ =
          Client.run db (fun tx ->
              Task_bucket.add tx tb ~payload:"range:data/000:data/999";
              Future.return ())
        in
        let chunk = 20 in
        let backup_task tx payload =
          match String.split_on_char ':' payload with
          | [ "range"; from; until ] ->
              let* rows =
                Client.range_all tx (Range_query.keys ~limit:chunk ~from ~until ())
              in
              List.iter
                (fun (k, v) -> Client.set tx ("snapshot/" ^ k) v)
                rows;
              if List.length rows < chunk then Future.return []
              else
                let last = fst (List.nth rows (List.length rows - 1)) in
                Future.return [ Printf.sprintf "range:%s:%s" (Types.next_key last) until ]
          | _ -> Future.return []
        in
        let* tasks_ran = Task_bucket.drain db tb ~f:backup_task in
        let* snapshot =
          Client.run db (fun tx ->
              Client.range_all tx (Range_query.prefix ~limit:100 "snapshot/" ()))
        in
        Future.return (tasks_ran, List.length snapshot))
  in
  Alcotest.(check int) "scan split into 5s-sized chunks" 3 (fst r);
  Alcotest.(check int) "full snapshot taken" 50 (snd r)

let test_racing_executors_no_duplicates () =
  let r =
    with_db (fun _cluster db ->
        let tb = Task_bucket.create ~prefix:"race" in
        let* _ =
          Client.run db (fun tx ->
              for i = 0 to 9 do
                Task_bucket.add tx tb ~payload:(string_of_int i)
              done;
              Future.return ())
        in
        let seen = ref [] in
        let worker () =
          Task_bucket.drain db tb ~f:(fun _tx payload ->
              seen := payload :: !seen;
              Future.return [])
        in
        let w1 = worker () and w2 = worker () in
        let* n1 = w1 and* n2 = w2 in
        Future.return (n1 + n2, List.sort_uniq compare !seen))
  in
  Alcotest.(check int) "every task ran exactly once" 10 (fst r);
  Alcotest.(check int) "no duplicates" 10 (List.length (snd r))

let suite =
  [
    Alcotest.test_case "fifo + atomic enqueue" `Quick test_fifo_and_atomic_enqueue;
    Alcotest.test_case "subdivision (backup pattern)" `Quick test_subdivision_backup_pattern;
    Alcotest.test_case "racing executors" `Quick test_racing_executors_no_duplicates;
  ]
