open Fdb_sim
open Fdb_kv
open Future.Syntax

(* --- Versioned_store: the window over its image --- *)

module Vs = Fdb_core.Versioned_store

let with_vs f =
  Engine.run (fun () ->
      let* s = Vs.recover ~disk:(Disk.create ()) ~prefix:"ss0" in
      f s)

let apply s v m = ignore (Vs.apply s v m : Mutation.t)

(* The image holds [keys] = "img" as of version 1; the window is empty. *)
let image_of s keys =
  List.iter (fun k -> apply s 1L (Mutation.Set (k, "img"))) keys;
  Vs.make_durable s 1L

(* The floors the image records, as a reboot would restore them. *)
let persisted_floors s =
  let rec triples = function
    | Fdb_core.Tuple.Bytes lo :: Bytes hi :: Int since :: rest -> (lo, hi, since) :: triples rest
    | _ -> []
  in
  List.concat_map
    (fun (_, r) -> triples (Fdb_core.Tuple.unpack r))
    (List.of_seq (Vs.image_range s ~from:"\xff\xff/ss/floors" ~until:"\xff\xff/ss/floors\x00"))

let image_rows s = List.of_seq (Vs.image_range s ~from:"" ~until:"\xff")

(* "a" and "b" in the image as of version 1; "a" set at 10 and 20, cleared
   at 30 in the window. *)
let vw_with_events s =
  let* () = image_of s [ "a"; "b" ] in
  apply s 10L (Mutation.Set ("a", "1"));
  apply s 20L (Mutation.Set ("a", "2"));
  apply s 30L (Mutation.Clear "a");
  Future.return ()

let check_read = Alcotest.(check (option string))

let test_vw_point_reads () =
  with_vs @@ fun s ->
  let* () = vw_with_events s in
  check_read "before the window: the image" (Some "img") (Vs.get s 5L "a");
  check_read "at v10" (Some "1") (Vs.get s 10L "a");
  check_read "between" (Some "1") (Vs.get s 15L "a");
  check_read "at v20" (Some "2") (Vs.get s 20L "a");
  check_read "cleared over the image" None (Vs.get s 30L "a");
  check_read "other key: the image" (Some "img") (Vs.get s 30L "b");
  check_read "absent everywhere" None (Vs.get s 30L "c");
  Future.return ()

let test_vw_range_clear_masks () =
  with_vs @@ fun s ->
  let* () = image_of s [ "d"; "z" ] in
  apply s 10L (Mutation.Set ("c", "x"));
  apply s 20L (Mutation.Clear_range ("a", "m"));
  check_read "set before clear-range" (Some "x") (Vs.get s 15L "c");
  check_read "swept by clear-range" None (Vs.get s 20L "c");
  check_read "image-only key masked" None (Vs.get s 25L "d");
  check_read "image-only key before the clear" (Some "img") (Vs.get s 15L "d");
  check_read "outside the range" (Some "img") (Vs.get s 25L "z");
  apply s 30L (Mutation.Set ("c", "y"));
  check_read "rewrite after clear-range" (Some "y") (Vs.get s 30L "c");
  Future.return ()

let test_vw_pop_through () =
  with_vs @@ fun s ->
  let* () = vw_with_events s in
  let* () = Vs.make_durable s 20L in
  Alcotest.(check (list (pair string string))) "popped in order" [ ("a", "2"); ("b", "img") ]
    (image_rows s);
  Alcotest.(check int64) "durable advanced" 20L (Vs.durable s);
  Alcotest.(check int64) "oldest advanced" 20L (Vs.oldest s);
  check_read "newer event still visible" None (Vs.get s 30L "a");
  check_read "older now from the image" (Some "2") (Vs.get s 25L "a");
  Alcotest.(check int) "one event left" 1 (Vs.event_count s);
  Future.return ()

(* A floor [(lo, hi, since)]: the image holds [lo, hi) as of [since]. *)
let test_vw_floor_hides_range () =
  with_vs @@ fun s ->
  apply s 10L (Mutation.Set ("b", "old"));
  apply s 10L (Mutation.Set ("x", "out"));
  apply s 15L (Mutation.Clear_range ("a", "z"));
  apply s 30L (Mutation.Set ("b", "new"));
  let* () = Vs.install s ~lo:"a" ~hi:"m" ~since:20L [ ("b", "snap") ] in
  check_read "set below the floor hidden" (Some "snap") (Vs.get s 12L "b");
  check_read "clear below the floor hidden" (Some "snap") (Vs.get s 16L "b");
  check_read "above the floor visible" (Some "new") (Vs.get s 30L "b");
  check_read "outside the range: set" (Some "out") (Vs.get s 12L "x");
  check_read "outside the range: clear" None (Vs.get s 16L "x");
  Alcotest.(check (option int64)) "last change above the floor" (Some 30L) (Vs.last_change s "b");
  Alcotest.(check (option int64)) "no change above the floor" None (Vs.last_change s "c");
  Alcotest.(check int64) "floor over an overlapping range" 20L
    (Vs.floor_over s ~from:"l" ~until:"z");
  Alcotest.(check int64) "no floor past hi" Int64.min_int (Vs.floor_over s ~from:"m" ~until:"z");
  let* () = Vs.install s ~lo:"a" ~hi:"m" ~since:25L [] in
  let* () = Vs.install s ~lo:"a" ~hi:"f" ~since:40L [] in
  Alcotest.(check int64) "same start kept" 25L (Vs.floor_over s ~from:"g" ~until:"h");
  Alcotest.(check (list (triple string string int64))) "same range replaced, same start kept"
    [ ("a", "f", 40L); ("a", "m", 25L) ]
    (persisted_floors s);
  Future.return ()

let test_vw_pop_through_floors () =
  with_vs @@ fun s ->
  let* () = image_of s [ "b"; "d"; "n" ] in
  apply s 10L (Mutation.Set ("d", "stale"));
  apply s 12L (Mutation.Set ("x", "kept"));
  apply s 15L (Mutation.Clear_range ("a", "w"));
  let* () = Vs.install s ~lo:"c" ~hi:"m" ~since:20L [ ("d", "snap") ] in
  let* () = Vs.make_durable s 18L in
  Alcotest.(check (list (pair string string))) "hidden set dropped, clear split around the floor"
    [ ("d", "snap"); ("x", "kept") ]
    (image_rows s);
  Alcotest.(check (list (triple string string int64))) "floor kept below since"
    [ ("c", "m", 20L) ] (persisted_floors s);
  apply s 25L (Mutation.Set ("d", "fresh"));
  let* () = Vs.make_durable s 20L in
  Alcotest.(check int) "nothing left to pop" 1 (Vs.event_count s);
  Alcotest.(check (list (triple string string int64))) "floor retired at since" []
    (persisted_floors s);
  Alcotest.(check int64) "no floor in memory" Int64.min_int (Vs.floor_over s ~from:"c" ~until:"m");
  check_read "later event visible" (Some "fresh") (Vs.get s 25L "d");
  Future.return ()

let test_vw_create_restores_floors () =
  let disk = Disk.create () in
  Engine.run @@ fun () ->
  let* s = Vs.recover ~disk ~prefix:"ss0" in
  let* () = Vs.install s ~lo:"a" ~hi:"m" ~since:20L [ ("b", "snap") ] in
  let* () = Vs.install s ~lo:"p" ~hi:"q" ~since:30L [] in
  Disk.crash disk;
  let* s = Vs.recover ~disk ~prefix:"ss0" in
  apply s 10L (Mutation.Set ("b", "replayed"));
  Alcotest.(check (list (triple string string int64))) "floors restored"
    [ ("p", "q", 30L); ("a", "m", 20L) ]
    (persisted_floors s);
  Alcotest.(check int64) "first floor" 20L (Vs.floor_over s ~from:"a" ~until:"b");
  Alcotest.(check int64) "second floor" 30L (Vs.floor_over s ~from:"p" ~until:"q");
  check_read "replayed event hidden" (Some "snap") (Vs.get s 15L "b");
  Future.return ()

let test_vw_rollback () =
  with_vs @@ fun s ->
  let* () = vw_with_events s in
  let dropped = Vs.rollback s ~after:15L in
  Alcotest.(check int) "dropped two" 2 dropped;
  check_read "v10 intact" (Some "1") (Vs.get s 30L "a");
  apply s 16L (Mutation.Set ("a", "3"));
  check_read "latest lowered: 16 applies" (Some "3") (Vs.get s 30L "a");
  Future.return ()

let test_vw_version_regression_rejected () =
  with_vs @@ fun s ->
  let* () = vw_with_events s in
  Alcotest.(check bool) "regression raises" true
    (try
       apply s 5L (Mutation.Set ("z", "1"));
       false
     with Invalid_argument _ -> true);
  Future.return ()

(* The image's and the window's keys merge in scan order; the flag says a
   candidate key was left, visible or not. *)
let test_vw_keys_in_range () =
  with_vs @@ fun s ->
  let* () = image_of s [ "b" ] in
  List.iter (fun k -> apply s 10L (Mutation.Set (k, k))) [ "a"; "c"; "e" ];
  let read ?(limit = max_int) ~reverse v =
    Vs.read_range s v ~from:"a" ~until:"d" ~reverse ~limit ~byte_limit:max_int
  in
  let rows = Alcotest.(pair (list (pair string string)) bool) in
  Alcotest.check rows "subset" ([ ("a", "a"); ("b", "img"); ("c", "c") ], false)
    (read ~reverse:false 10L);
  Alcotest.check rows "subset, reversed" ([ ("c", "c"); ("b", "img"); ("a", "a") ], false)
    (read ~reverse:true 10L);
  Alcotest.check rows "row budget" ([ ("a", "a"); ("b", "img") ], true)
    (read ~limit:2 ~reverse:false 10L);
  Alcotest.check rows "budget met by the last row" ([ ("a", "a"); ("b", "img"); ("c", "c") ], false)
    (read ~limit:3 ~reverse:false 10L);
  Alcotest.check rows "an invisible candidate left" ([ ("b", "img") ], true)
    (read ~limit:1 ~reverse:false 5L);
  Future.return ()

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
  (* Random single-key histories over an image holding the key: reads must
     match a naive replay. *)
  QCheck.Test.make ~name:"version_window matches naive replay" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) (pair (int_range 0 2) small_nat)))
    (fun ops ->
      with_vs @@ fun s ->
      let* () = image_of s [ "k" ] in
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
          apply s version m;
          history := (version, m) :: !history)
        ops;
      let naive_at version =
        List.fold_left
          (fun acc (v, m) ->
            if v > version then acc
            else
              match m with
              | Mutation.Set ("k", value) -> Some value
              | Mutation.Clear "k" | Mutation.Clear_range _ -> None
              | _ -> acc)
          (Some "img")
          (List.rev !history)
      in
      Future.return
        (List.for_all
           (fun probe ->
             let version = Int64.of_int probe in
             Vs.get s version "k" = naive_at version)
           (List.init 45 (fun i -> i * 10))))

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
    Property.to_alcotest qcheck_vw_matches_naive;
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
