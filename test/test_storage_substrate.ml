open Fdb_sim
open Fdb_kv
open Future.Syntax

(* --- Version_window --- *)

let vw_with_events () =
  let w = Version_window.create () in
  Version_window.apply w 10L (Mutation.Set ("a", "1"));
  Version_window.apply w 20L (Mutation.Set ("a", "2"));
  Version_window.apply w 30L (Mutation.Clear "a");
  w

let check_read = Alcotest.(check bool)

let test_vw_point_reads () =
  let w = vw_with_events () in
  check_read "before first" true (Version_window.read w 5L "a" = Version_window.Unknown);
  check_read "at v10" true (Version_window.read w 10L "a" = Version_window.Value "1");
  check_read "between" true (Version_window.read w 15L "a" = Version_window.Value "1");
  check_read "at v20" true (Version_window.read w 20L "a" = Version_window.Value "2");
  check_read "cleared" true (Version_window.read w 30L "a" = Version_window.Cleared);
  check_read "other key" true (Version_window.read w 30L "b" = Version_window.Unknown)

let test_vw_range_clear_masks () =
  let w = Version_window.create () in
  Version_window.apply w 10L (Mutation.Set ("c", "x"));
  Version_window.apply w 20L (Mutation.Clear_range ("a", "m"));
  check_read "set before clear-range" true
    (Version_window.read w 15L "c" = Version_window.Value "x");
  check_read "swept by clear-range" true
    (Version_window.read w 20L "c" = Version_window.Cleared);
  check_read "persistent-only key masked" true
    (Version_window.read w 25L "d" = Version_window.Cleared);
  check_read "outside the range" true
    (Version_window.read w 25L "z" = Version_window.Unknown);
  Version_window.apply w 30L (Mutation.Set ("c", "y"));
  check_read "rewrite after clear-range" true
    (Version_window.read w 30L "c" = Version_window.Value "y")

let test_vw_pop_through () =
  let w = vw_with_events () in
  let popped = Version_window.pop_through w 20L in
  Alcotest.(check int) "popped two" 2 (List.length popped);
  Alcotest.(check bool) "in order" true
    (popped = [ Mutation.Set ("a", "1"); Mutation.Set ("a", "2") ]);
  Alcotest.(check int64) "oldest advanced" 20L (Version_window.oldest w);
  check_read "newer event still visible" true
    (Version_window.read w 30L "a" = Version_window.Cleared);
  check_read "older now unknown" true
    (Version_window.read w 25L "a" = Version_window.Unknown);
  Alcotest.(check int) "one event left" 1 (Version_window.event_count w)

(* A floor [(lo, hi, since)]: the level below holds [lo, hi) as of [since]. *)
let test_vw_floor_hides_range () =
  let w = Version_window.create () in
  Version_window.apply w 10L (Mutation.Set ("b", "old"));
  Version_window.apply w 10L (Mutation.Set ("x", "out"));
  Version_window.apply w 15L (Mutation.Clear_range ("a", "z"));
  Version_window.apply w 30L (Mutation.Set ("b", "new"));
  Version_window.install_floor w ~lo:"a" ~hi:"m" ~since:20L;
  check_read "set below the floor hidden" true (Version_window.read w 12L "b" = Version_window.Unknown);
  check_read "clear below the floor hidden" true
    (Version_window.read w 16L "b" = Version_window.Unknown);
  check_read "above the floor visible" true (Version_window.read w 30L "b" = Version_window.Value "new");
  check_read "outside the range: set" true (Version_window.read w 12L "x" = Version_window.Value "out");
  check_read "outside the range: clear" true (Version_window.read w 16L "x" = Version_window.Cleared);
  Alcotest.(check (option int64)) "last change above the floor" (Some 30L)
    (Version_window.last_change w "b");
  Alcotest.(check (option int64)) "no change above the floor" None (Version_window.last_change w "c");
  Alcotest.(check int64) "floor over an overlapping range" 20L
    (Version_window.floor_over w ~from:"l" ~until:"z");
  Alcotest.(check int64) "no floor past hi" Int64.min_int
    (Version_window.floor_over w ~from:"m" ~until:"z");
  Version_window.install_floor w ~lo:"a" ~hi:"m" ~since:25L;
  Version_window.install_floor w ~lo:"a" ~hi:"f" ~since:40L;
  Alcotest.(check (list (triple string string int64))) "same range replaced, same start kept"
    [ ("a", "f", 40L); ("a", "m", 25L) ]
    (Version_window.floors w)

let test_vw_pop_through_floors () =
  let w = Version_window.create () in
  Version_window.apply w 10L (Mutation.Set ("d", "stale"));
  Version_window.apply w 12L (Mutation.Set ("x", "kept"));
  Version_window.apply w 15L (Mutation.Clear_range ("a", "z"));
  Version_window.install_floor w ~lo:"c" ~hi:"m" ~since:20L;
  Alcotest.(check bool) "hidden set dropped, clear split around the floor" true
    (Version_window.pop_through w 18L
    = [ Mutation.Set ("x", "kept"); Mutation.Clear_range ("a", "c"); Mutation.Clear_range ("m", "z") ]);
  Alcotest.(check int) "floor kept below since" 1 (List.length (Version_window.floors w));
  Version_window.apply w 25L (Mutation.Set ("d", "fresh"));
  Alcotest.(check bool) "nothing left to pop" true (Version_window.pop_through w 20L = []);
  Alcotest.(check int) "floor retired at since" 0 (List.length (Version_window.floors w));
  check_read "later event visible" true (Version_window.read w 25L "d" = Version_window.Value "fresh")

let test_vw_create_restores_floors () =
  let floors = [ ("a", "m", 20L); ("p", "q", 30L) ] in
  let w = Version_window.create ~initial_version:5L ~floors () in
  Version_window.apply w 10L (Mutation.Set ("b", "replayed"));
  Alcotest.(check (list (triple string string int64))) "floors restored" floors
    (Version_window.floors w);
  check_read "replayed event hidden" true (Version_window.read w 15L "b" = Version_window.Unknown)

let test_vw_rollback () =
  let w = vw_with_events () in
  let dropped = Version_window.rollback w ~after:15L in
  Alcotest.(check int) "dropped two" 2 dropped;
  Alcotest.(check int64) "latest lowered" 15L (Version_window.latest w);
  check_read "v10 intact" true (Version_window.read w 30L "a" = Version_window.Value "1")

let test_vw_version_regression_rejected () =
  let w = vw_with_events () in
  Alcotest.(check bool) "regression raises" true
    (try
       Version_window.apply w 5L (Mutation.Set ("z", "1"));
       false
     with Invalid_argument _ -> true)

let test_vw_keys_in_range () =
  let w = Version_window.create () in
  List.iter (fun k -> Version_window.apply w 10L (Mutation.Set (k, k))) [ "a"; "c"; "e" ];
  let keys ~reverse = List.of_seq (Version_window.keys w ~from:"a" ~until:"d" ~reverse) in
  Alcotest.(check (list string)) "subset" [ "a"; "c" ] (keys ~reverse:false);
  Alcotest.(check (list string)) "subset, reversed" [ "c"; "a" ] (keys ~reverse:true)

(* --- Mutation / atomic ops --- *)

let le_bytes i = String.init 8 (fun b -> Char.chr ((i lsr (8 * b)) land 0xff))

let test_atomic_add () =
  let v1 = Mutation.atomic_result Mutation.Add ~old_value:(Some (le_bytes 5)) (le_bytes 7) in
  Alcotest.(check (option string)) "5+7" (Some (le_bytes 12)) v1;
  let v2 = Mutation.atomic_result Mutation.Add ~old_value:None (le_bytes 3) in
  Alcotest.(check (option string)) "missing treated as 0" (Some (le_bytes 3)) v2

let test_atomic_add_carry () =
  let v =
    Mutation.atomic_result Mutation.Add ~old_value:(Some "\xff\x00") "\x01\x00"
  in
  Alcotest.(check (option string)) "carry" (Some "\x00\x01") v

let test_atomic_minmax () =
  let old_v = Some (le_bytes 10) in
  Alcotest.(check (option string)) "max" (Some (le_bytes 12))
    (Mutation.atomic_result Mutation.Max ~old_value:old_v (le_bytes 12));
  Alcotest.(check (option string)) "min keeps" (Some (le_bytes 10))
    (Mutation.atomic_result Mutation.Min ~old_value:old_v (le_bytes 12));
  Alcotest.(check (option string)) "min missing takes operand" (Some (le_bytes 12))
    (Mutation.atomic_result Mutation.Min ~old_value:None (le_bytes 12))

let test_atomic_compare_and_clear () =
  Alcotest.(check (option string)) "match clears" None
    (Mutation.atomic_result Mutation.Compare_and_clear ~old_value:(Some "x") "x");
  Alcotest.(check (option string)) "mismatch keeps" (Some "y")
    (Mutation.atomic_result Mutation.Compare_and_clear ~old_value:(Some "y") "x")

let test_atomic_bitops () =
  Alcotest.(check (option string)) "or" (Some "\x07")
    (Mutation.atomic_result Mutation.Bit_or ~old_value:(Some "\x05") "\x03");
  Alcotest.(check (option string)) "and" (Some "\x01")
    (Mutation.atomic_result Mutation.Bit_and ~old_value:(Some "\x05") "\x03");
  Alcotest.(check (option string)) "xor" (Some "\x06")
    (Mutation.atomic_result Mutation.Bit_xor ~old_value:(Some "\x05") "\x03")

(* --- Persistent_store --- *)

let with_store f =
  Engine.run (fun () ->
      let disk = Disk.create () in
      let* store = Persistent_store.recover ~disk ~prefix:"ss0" () in
      f disk store)

let test_ps_basic () =
  let r =
    with_store (fun _disk store ->
        let* () =
          Persistent_store.apply store
            [ Mutation.Set ("a", "1"); Mutation.Set ("b", "2"); Mutation.Set ("c", "3") ]
        in
        let* () = Persistent_store.apply store [ Mutation.Clear "b" ] in
        let* () = Persistent_store.commit store in
        Future.return
          ( Persistent_store.get store "a",
            Persistent_store.get store "b",
            List.of_seq (Persistent_store.range store ~from:"a" ~until:"z" ~reverse:false) ))
  in
  let a, b, range = r in
  Alcotest.(check (option string)) "a" (Some "1") a;
  Alcotest.(check (option string)) "b cleared" None b;
  Alcotest.(check (list (pair string string))) "range" [ ("a", "1"); ("c", "3") ] range

let test_ps_clear_range_and_limit () =
  let r =
    with_store (fun _disk store ->
        let muts = List.init 10 (fun i -> Mutation.Set (Printf.sprintf "k%d" i, "v")) in
        let* () = Persistent_store.apply store muts in
        let* () = Persistent_store.apply store [ Mutation.Clear_range ("k3", "k7") ] in
        let range = Persistent_store.range store ~from:"k0" ~until:"k9\xff" ~reverse:false in
        Future.return (List.of_seq range, List.of_seq (Seq.take 2 range)))
  in
  let all, limited = r in
  Alcotest.(check int) "cleared range" 6 (List.length all);
  Alcotest.(check (list (pair string string))) "limit" [ ("k0", "v"); ("k1", "v") ] limited

let test_ps_recovery_durable () =
  let r =
    Engine.run (fun () ->
        let disk = Disk.create () in
        let* store = Persistent_store.recover ~disk ~prefix:"ss0" () in
        let* () = Persistent_store.apply store [ Mutation.Set ("a", "1") ] in
        let* () = Persistent_store.commit store in
        let* () = Persistent_store.apply store [ Mutation.Set ("b", "2") ] in
        (* no commit for b *)
        Disk.crash disk;
        let* store' = Persistent_store.recover ~disk ~prefix:"ss0" () in
        Future.return
          (Persistent_store.get store' "a", Persistent_store.get store' "b"))
  in
  Alcotest.(check (option string)) "synced survives" (Some "1") (fst r);
  Alcotest.(check (option string)) "unsynced lost" None (snd r)

let test_ps_checkpoint_cycle () =
  let r =
    Engine.run (fun () ->
        let disk = Disk.create () in
        let* store = Persistent_store.recover ~disk ~prefix:"ss0" ~checkpoint_every:10 () in
        let rec writes i =
          if i = 50 then Future.return ()
          else
            let* () =
              Persistent_store.apply store [ Mutation.Set (Printf.sprintf "k%03d" i, string_of_int i) ]
            in
            let* () = Persistent_store.commit store in
            writes (i + 1)
        in
        let* () = writes 0 in
        Disk.crash disk;
        let* store' = Persistent_store.recover ~disk ~prefix:"ss0" () in
        Future.return (Persistent_store.entry_count store', Persistent_store.last_seq store'))
  in
  Alcotest.(check int) "all entries back" 50 (fst r);
  Alcotest.(check int) "seq restored" 50 (snd r)

let set_keys store lo hi =
  Persistent_store.apply store
    (List.init (hi - lo) (fun i -> Mutation.Set (Printf.sprintf "k%03d" (lo + i), "v")))

let test_ps_checkpoint_keeps_one_snapshot () =
  let r =
    Engine.run (fun () ->
        let disk = Disk.create () in
        let* store = Persistent_store.recover ~disk ~prefix:"ss0" ~checkpoint_every:10 () in
        let rec rounds i =
          if i = 5 then Future.return ()
          else
            let* () = set_keys store (i * 10) ((i + 1) * 10) in
            let* () = Persistent_store.commit store in
            rounds (i + 1)
        in
        let* () = rounds 0 in
        let* snaps = Disk.read_all disk "ss0.snap" in
        let* store' = Persistent_store.recover ~disk ~prefix:"ss0" () in
        Future.return (List.length snaps, Persistent_store.entry_count store'))
  in
  Alcotest.(check int) "one snapshot record after 5 checkpoints" 1 (fst r);
  Alcotest.(check int) "all entries back" 50 (snd r)

(* A crash after the new snapshot is appended but before its sync: the old
   snapshot plus the still-present WAL must rebuild the whole store. A slow
   sync (10 s) makes the window wide enough to crash in deterministically. *)
let test_ps_crash_before_snapshot_sync () =
  let r =
    Engine.run (fun () ->
        let disk = Disk.create ~sync_latency:10.0 () in
        let proc = Process.create ~name:"ss" (Process.fresh_machine 1) in
        Disk.attach disk proc;
        let* store = Persistent_store.recover ~disk ~prefix:"ss0" ~checkpoint_every:10 () in
        let* () = set_keys store 0 10 in
        let* () = Persistent_store.commit store in
        let* () = set_keys store 10 20 in
        (* WAL sync ends at +10 s, the snapshot sync at +20 s. *)
        Engine.spawn ~process:proc "checkpoint" (fun () -> Persistent_store.commit store);
        let* () = Engine.sleep 15.0 in
        let* appended = Disk.read_all disk "ss0.snap" in
        Engine.kill proc;
        let* snaps = Disk.read_all disk "ss0.snap" in
        let* store' = Persistent_store.recover ~disk ~prefix:"ss0" () in
        Future.return
          ( List.length appended,
            List.length snaps,
            Persistent_store.entry_count store',
            Persistent_store.last_seq store' ))
  in
  let appended, snaps, entries, seq = r in
  Alcotest.(check int) "second snapshot appended before the crash" 2 appended;
  Alcotest.(check int) "unsynced snapshot lost, old one kept" 1 snaps;
  Alcotest.(check int) "all entries back" 20 entries;
  Alcotest.(check int) "seq restored" 20 seq

(* Every record is charged what it holds: a WAL record its 8-byte sequence
   number and its mutation's key and value, a snapshot its sequence number
   and every key and value of the image. *)
let test_ps_charges_logical_size () =
  let kv i = (Printf.sprintf "k%03d" i, Printf.sprintf "v%d" i) in
  let r =
    Engine.run (fun () ->
        let disk = Disk.create () in
        let* store = Persistent_store.recover ~disk ~prefix:"ss0" ~checkpoint_every:10 () in
        let* () =
          Persistent_store.apply store
            (List.init 10 (fun i -> let k, v = kv i in Mutation.Set (k, v)))
        in
        let wal = Disk.bytes_written disk in
        let* () = Persistent_store.commit store in
        Future.return (wal, Disk.bytes_written disk -. wal))
  in
  let wal, snapshot = r in
  (* Keys are 4 bytes; values are 2 bytes ("v0".."v9"). *)
  Alcotest.(check (float 0.0)) "WAL records" (float_of_int (10 * (8 + 4 + 2))) wal;
  Alcotest.(check (float 0.0)) "snapshot record" (float_of_int (8 + (10 * (4 + 2)))) snapshot

(* A reboot reads back the very values written, from the snapshot and from
   the WAL alike. *)
let test_ps_reboot_reads_written_values () =
  let a = String.make 3 'a' and b = String.make 3 'b' and c = String.make 3 'c' in
  let r =
    Engine.run (fun () ->
        let disk = Disk.create () in
        let* store = Persistent_store.recover ~disk ~prefix:"ss0" ~checkpoint_every:2 () in
        let set k v =
          let* () = Persistent_store.apply store [ Mutation.Set (k, v) ] in
          Persistent_store.commit store
        in
        (* a and b go into the checkpoint, c stays in the WAL. *)
        let* () = set "a" a in
        let* () = set "b" b in
        let* () = set "c" c in
        let before = Persistent_store.get store "a" in
        Disk.crash disk;
        let* store' = Persistent_store.recover ~disk ~prefix:"ss0" () in
        Future.return (before, List.map (Persistent_store.get store') [ "a"; "b"; "c" ]))
  in
  let before, after = r in
  Alcotest.(check bool) "the live image holds the value set" true
    (match before with Some v -> v == a | None -> false);
  Alcotest.(check (list (option string))) "all back" [ Some a; Some b; Some c ] after;
  List.iter2
    (fun v got ->
      Alcotest.(check bool) "the value written" true (match got with Some g -> g == v | None -> false))
    [ a; b; c ] after

let test_ps_keys () =
  let r =
    with_store (fun _disk store ->
        let* () =
          Persistent_store.apply store
            (List.map (fun k -> Mutation.Set (k, k)) [ "a"; "b"; "c"; "d" ])
        in
        let keys ~from ~until ~reverse =
          List.of_seq (Seq.map fst (Persistent_store.range store ~from ~until ~reverse))
        in
        Future.return
          [
            keys ~from:"b" ~until:"d" ~reverse:false;
            keys ~from:"b" ~until:"d" ~reverse:true;
            keys ~from:"" ~until:"\xff" ~reverse:false;
            keys ~from:"" ~until:"\xff" ~reverse:true;
            keys ~from:"bb" ~until:"c0" ~reverse:true;
            keys ~from:"c" ~until:"c" ~reverse:false;
            keys ~from:"c" ~until:"c" ~reverse:true;
          ])
  in
  Alcotest.(check (list (list string)))
    "from inclusive, until exclusive, both directions"
    [
      [ "b"; "c" ];
      [ "c"; "b" ];
      [ "a"; "b"; "c"; "d" ];
      [ "d"; "c"; "b"; "a" ];
      [ "c" ];
      [];
      [];
    ]
    r

let qcheck_vw_matches_naive =
  (* Random single-key histories: window reads must match a naive replay. *)
  QCheck.Test.make ~name:"version_window matches naive replay" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) (pair (int_range 0 2) small_nat)))
    (fun ops ->
      let w = Version_window.create () in
      let history = ref [] in
      List.iteri
        (fun i (kind, v) ->
          let version = Int64.of_int ((i + 1) * 10) in
          let m =
            match kind with
            | 0 -> Mutation.Set ("k", string_of_int v)
            | 1 -> Mutation.Clear "k"
            | _ -> Mutation.Clear_range ("a", "z")
          in
          Version_window.apply w version m;
          history := (version, m) :: !history)
        ops;
      let naive_at version =
        List.fold_left
          (fun acc (v, m) ->
            if v > version then acc
            else
              match m with
              | Mutation.Set ("k", value) -> `Value value
              | Mutation.Clear "k" | Mutation.Clear_range _ -> `Cleared
              | _ -> acc)
          `No_event
          (List.rev !history)
      in
      List.for_all
        (fun probe ->
          let version = Int64.of_int probe in
          match (Version_window.read w version "k", naive_at version) with
          | Version_window.Value v, `Value v' -> v = v'
          | Version_window.Cleared, `Cleared -> true
          | Version_window.Unknown, `No_event -> true
          | _ -> false)
        (List.init 45 (fun i -> i * 10)))

let suite =
  [
    Alcotest.test_case "vw point reads" `Quick test_vw_point_reads;
    Alcotest.test_case "vw range clear masks" `Quick test_vw_range_clear_masks;
    Alcotest.test_case "vw pop_through" `Quick test_vw_pop_through;
    Alcotest.test_case "vw floor hides its range" `Quick test_vw_floor_hides_range;
    Alcotest.test_case "vw pop_through drops hidden parts, retires floors" `Quick
      test_vw_pop_through_floors;
    Alcotest.test_case "vw create restores floors" `Quick test_vw_create_restores_floors;
    Alcotest.test_case "vw rollback" `Quick test_vw_rollback;
    Alcotest.test_case "vw version regression" `Quick test_vw_version_regression_rejected;
    Alcotest.test_case "vw keys in range" `Quick test_vw_keys_in_range;
    QCheck_alcotest.to_alcotest qcheck_vw_matches_naive;
    Alcotest.test_case "atomic add" `Quick test_atomic_add;
    Alcotest.test_case "atomic add carry" `Quick test_atomic_add_carry;
    Alcotest.test_case "atomic min/max" `Quick test_atomic_minmax;
    Alcotest.test_case "atomic compare-and-clear" `Quick test_atomic_compare_and_clear;
    Alcotest.test_case "atomic bitops" `Quick test_atomic_bitops;
    Alcotest.test_case "persistent basic" `Quick test_ps_basic;
    Alcotest.test_case "persistent clear range + limit" `Quick test_ps_clear_range_and_limit;
    Alcotest.test_case "persistent recovery durability" `Quick test_ps_recovery_durable;
    Alcotest.test_case "persistent checkpoint cycle" `Quick test_ps_checkpoint_cycle;
    Alcotest.test_case "persistent checkpoint keeps one snapshot" `Quick
      test_ps_checkpoint_keeps_one_snapshot;
    Alcotest.test_case "persistent crash before snapshot sync" `Quick
      test_ps_crash_before_snapshot_sync;
    Alcotest.test_case "persistent keys" `Quick test_ps_keys;
    Alcotest.test_case "persistent charges logical size" `Quick test_ps_charges_logical_size;
    Alcotest.test_case "persistent reboot reads values" `Quick test_ps_reboot_reads_written_values;
  ]
