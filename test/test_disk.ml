open Fdb_sim
open Future.Syntax

let test_append_read_back () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* () = Disk.append d "log" "a" in
        let* () = Disk.append d "log" "b" in
        let* recs = Disk.read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "append order" [ "a"; "b" ] r

let test_unsynced_lost_on_crash () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* () = Disk.append d "log" "a" in
        let* () = Disk.sync d "log" in
        let* () = Disk.append d "log" "b" in
        Disk.crash d;
        let* recs = Disk.read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "only synced survives" [ "a" ] r

let test_synced_survives_crash () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* () = Disk.append d "log" "a" in
        let* () = Disk.append d "log" "b" in
        let* () = Disk.sync d "log" in
        Disk.crash d;
        Disk.crash d;
        let* recs = Disk.read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "all synced survive double crash" [ "a"; "b" ] r

let test_write_file_read_file () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* () = Disk.write_file d "state" "v1" in
        let* () = Disk.write_file d "state" "v2" in
        let* v = Disk.read_file d "state" in
        Future.return v)
  in
  Alcotest.(check (option string)) "last write wins" (Some "v2") r

let test_unsynced_file_lost () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* () = Disk.write_file d "state" "v1" in
        let* () = Disk.sync d "state" in
        let* () = Disk.write_file d "state" "v2" in
        Disk.crash d;
        let* v = Disk.read_file d "state" in
        Future.return v)
  in
  (* write_file truncates, so after the crash the unsynced truncate+write is
     rolled back to... nothing durable. The caller must sync before relying
     on replacement; losing both versions is a legal outcome of our model. *)
  Alcotest.(check (option string)) "unsynced replacement lost" None r

let test_missing_file () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* recs = Disk.read_all d "nope" in
        let* v = Disk.read_file d "nope" in
        Future.return (recs, v))
  in
  Alcotest.(check (pair (list string) (option string))) "missing" ([], None) r

let test_attach_crashes_on_kill () =
  let r =
    Engine.run (fun () ->
        let m = Process.fresh_machine 1 in
        let p = Process.create m in
        let d = Disk.create () in
        Disk.attach d p;
        let* () = Disk.append d "log" "a" in
        Engine.kill p;
        let* recs = Disk.read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "dropped via hook" [] r

let test_disk_op_takes_time () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~seek:0.001 ~bytes_per_sec:1000.0 () in
        let t0 = Engine.now () in
        let* () = Disk.append d "log" (String.make 1000 'x') in
        Future.return (Engine.now () -. t0))
  in
  Alcotest.(check bool) "seek + transfer" true (r >= 1.0)

let test_disk_queueing () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~seek:1.0 ~bytes_per_sec:1e12 () in
        let done1 = ref 0.0 and done2 = ref 0.0 in
        let j out () =
          let* () = Disk.append d "log" "x" in
          out := Engine.now ();
          Future.return ()
        in
        let f1 = j done1 () in
        let f2 = j done2 () in
        let* () = Future.all_unit [ f1; f2 ] in
        Future.return (!done1, !done2))
  in
  Alcotest.(check (pair (float 0.01) (float 0.01))) "fcfs" (1.0, 2.0) r

let test_delete () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* () = Disk.append d "log" "a" in
        let* () = Disk.delete d "log" in
        let* recs = Disk.read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "deleted" [] r

let suite =
  [
    Alcotest.test_case "append/read back" `Quick test_append_read_back;
    Alcotest.test_case "unsynced lost on crash" `Quick test_unsynced_lost_on_crash;
    Alcotest.test_case "synced survives crash" `Quick test_synced_survives_crash;
    Alcotest.test_case "write_file/read_file" `Quick test_write_file_read_file;
    Alcotest.test_case "unsynced file lost" `Quick test_unsynced_file_lost;
    Alcotest.test_case "missing file" `Quick test_missing_file;
    Alcotest.test_case "attach crash hook" `Quick test_attach_crashes_on_kill;
    Alcotest.test_case "ops take time" `Quick test_disk_op_takes_time;
    Alcotest.test_case "fcfs queueing" `Quick test_disk_queueing;
    Alcotest.test_case "delete" `Quick test_delete;
  ]
