open Fdb_sim
open Future.Syntax

(* Raw records charged one byte per character. *)
let append d file s = Disk.append d file ~bytes:(String.length s) (Disk.Raw s)
let write_file d file s = Disk.write_file d file ~bytes:(String.length s) (Disk.Raw s)
let raw = function Disk.Raw s -> s | _ -> "?"

let read_all d file =
  let* records = Disk.read_all d file in
  Future.return (List.map raw records)

let read_file d file =
  let* record = Disk.read_file d file in
  Future.return (Option.map raw record)

let test_append_read_back () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* () = append d "log" "a" in
        let* () = append d "log" "b" in
        let* recs = read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "append order" [ "a"; "b" ] r

let test_unsynced_lost_on_crash () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* () = append d "log" "a" in
        let* () = Disk.sync d "log" in
        let* () = append d "log" "b" in
        Disk.crash d;
        let* recs = read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "only synced survives" [ "a" ] r

let test_synced_survives_crash () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* () = append d "log" "a" in
        let* () = append d "log" "b" in
        let* () = Disk.sync d "log" in
        Disk.crash d;
        Disk.crash d;
        let* recs = read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "all synced survive double crash" [ "a"; "b" ] r

let test_write_file_read_file () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* () = write_file d "state" "v1" in
        let* () = write_file d "state" "v2" in
        let* v = read_file d "state" in
        Future.return v)
  in
  Alcotest.(check (option string)) "last write wins" (Some "v2") r

let test_unsynced_file_lost () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* () = write_file d "state" "v1" in
        let* () = Disk.sync d "state" in
        let* () = write_file d "state" "v2" in
        Disk.crash d;
        let* v = read_file d "state" in
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
        let* recs = read_all d "nope" in
        let* v = read_file d "nope" in
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
        let* () = append d "log" "a" in
        Engine.kill p;
        let* recs = read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "dropped via hook" [] r

(* A record costs seek + bytes / bandwidth for the bytes its writer
   declares, whatever the record holds. *)
let test_disk_op_takes_time () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~seek:0.001 ~bytes_per_sec:1000.0 () in
        let t0 = Engine.now () in
        let* () = Disk.append d "log" ~bytes:1000 (Disk.Raw "x") in
        let t1 = Engine.now () in
        let* () = Disk.write_file d "state" ~bytes:250 (Disk.Raw "") in
        Future.return (t1 -. t0, Engine.now () -. t1, Disk.bytes_written d))
  in
  let append, write, written = r in
  Alcotest.(check (float 1e-9)) "append: seek + 1000 B" 1.001 append;
  Alcotest.(check (float 1e-9)) "write_file: seek + 250 B" 0.251 write;
  Alcotest.(check (float 0.0)) "declared bytes counted" 1250.0 written

let test_disk_queueing () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~seek:1.0 ~bytes_per_sec:1e12 () in
        let done1 = ref 0.0 and done2 = ref 0.0 in
        let j out () =
          let* () = append d "log" "x" in
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
        let* () = append d "log" "a" in
        let* () = Disk.delete d "log" in
        let* recs = read_all d "log" in
        Future.return recs)
  in
  Alcotest.(check (list string)) "deleted" [] r

(* The record count a sync makes durable stays in step with crash and
   drop_prefix. *)
let test_sync_after_drop_and_crash () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create () in
        let* () = append d "log" "a" in
        let* () = append d "log" "b" in
        let* () = append d "log" "c" in
        Disk.drop_prefix d "log" 1;
        let* () = Disk.sync d "log" in
        let* () = append d "log" "d" in
        Disk.crash d;
        let* after_crash = read_all d "log" in
        let* () = append d "log" "e" in
        let* () = Disk.sync d "log" in
        Disk.crash d;
        let* after_sync = read_all d "log" in
        Future.return (after_crash, after_sync, Disk.durable_count d "log"))
  in
  let after_crash, after_sync, durable = r in
  Alcotest.(check (list string)) "drop, sync, crash" [ "b"; "c" ] after_crash;
  Alcotest.(check (list string)) "append, sync, crash" [ "b"; "c"; "e" ] after_sync;
  Alcotest.(check int) "durable count" 3 durable

(* A sync covers the records buffered when it was issued, wherever a drop
   or rewrite that runs while the disk serves it moves them. *)
let test_drop_during_sync () =
  let r =
    Engine.run (fun () ->
        let d = Disk.create ~sync_latency:1.0 () in
        let* () = append d "log" "a" in
        let* () = append d "log" "b" in
        let* () = append d "log" "c" in
        let* () = write_file d "snap" "s1" in
        let log_sync = Disk.sync d "log" in
        let snap_sync = Disk.sync d "snap" in
        Disk.drop_prefix d "log" 2;
        let late_log = append d "log" "d" in
        let late_snap = write_file d "snap" "s2" in
        let* () = log_sync in
        let* () = snap_sync in
        let* () = late_log in
        let* () = late_snap in
        let durable = (Disk.durable_count d "log", Disk.durable_count d "snap") in
        Disk.crash d;
        let* log = read_all d "log" in
        let* snap = read_all d "snap" in
        Future.return (durable, log, snap))
  in
  let durable, log, snap = r in
  Alcotest.(check (pair int int)) "durable counts" (1, 0) durable;
  Alcotest.(check (list string)) "log after crash" [ "c" ] log;
  Alcotest.(check (list string)) "snap after crash" [] snap

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
    Alcotest.test_case "sync after drop and crash" `Quick test_sync_after_drop_and_crash;
    Alcotest.test_case "drop during a slow sync" `Quick test_drop_during_sync;
  ]
