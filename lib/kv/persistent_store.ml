open Fdb_sim
open Future.Syntax
module KeyMap = Map.Make (String)

type t = {
  disk : Disk.t;
  wal_file : string;
  snap_file : string;
  checkpoint_every : int;
  mutable map : string KeyMap.t;
  mutable seq : int;
  mutable wal_len : int;
}

type wal_record = { wr_seq : int; wr_mut : Mutation.t }

(* A record is charged what it holds: an 8-byte sequence number plus the
   key and value bytes. *)
let seq_bytes = 8

(* A checkpoint holds the image itself: the map is immutable, so the record
   shares its structure with the live image instead of holding a second
   copy of the store. *)
type snapshot = { sn_seq : int; sn_map : string KeyMap.t }

type Disk.record += Wal of wal_record | Snapshot of snapshot

let apply_mutation_to_map map (m : Mutation.t) =
  match m with
  | Mutation.Set (k, v) -> KeyMap.add k v map
  | Mutation.Clear k -> KeyMap.remove k map
  | Mutation.Clear_range (a, b) ->
      KeyMap.filter (fun k _ -> k < a || k >= b) map
  | Mutation.Atomic _ -> invalid_arg "Persistent_store: unmaterialized atomic"

let recover ~disk ~prefix ?(checkpoint_every = 5000) () =
  let wal_file = prefix ^ ".wal" and snap_file = prefix ^ ".snap" in
  let* snaps = Disk.read_all disk snap_file in
  let map0, seq0 =
    List.fold_left
      (fun (map, seq) -> function
        | Snapshot sn when sn.sn_seq > seq -> (sn.sn_map, sn.sn_seq)
        | Snapshot _ -> (map, seq)
        | _ -> invalid_arg "Persistent_store: not a snapshot record")
      (KeyMap.empty, 0) snaps
  in
  let* wal = Disk.read_all disk wal_file in
  (* Replay the contiguous suffix: skip records covered by the snapshot,
     stop at the first gap (torn tail after a buggified crash). *)
  let map, seq =
    List.fold_left
      (fun (map, seq) -> function
        | Wal r when r.wr_seq = seq + 1 -> (apply_mutation_to_map map r.wr_mut, r.wr_seq)
        | Wal _ -> (map, seq) (* covered by the snapshot, or past a gap *)
        | _ -> invalid_arg "Persistent_store: not a WAL record")
      (map0, seq0) wal
  in
  Future.return
    {
      disk;
      wal_file;
      snap_file;
      checkpoint_every;
      map;
      seq;
      wal_len = seq - seq0;
    }

let get t key = KeyMap.find_opt key t.map

let range t ~from ~until ~reverse =
  if reverse then
    let below, _, _ = KeyMap.split until t.map in
    KeyMap.to_rev_seq below |> Seq.take_while (fun (k, _) -> k >= from)
  else KeyMap.to_seq_from from t.map |> Seq.take_while (fun (k, _) -> k < until)

let apply t mutations =
  let futures =
    List.map
      (fun m ->
        t.seq <- t.seq + 1;
        t.wal_len <- t.wal_len + 1;
        t.map <- apply_mutation_to_map t.map m;
        let r = { wr_seq = t.seq; wr_mut = m } in
        Disk.append t.disk t.wal_file ~bytes:(seq_bytes + Mutation.byte_size m) (Wal r))
      mutations
  in
  Future.all_unit futures

(* Append, sync, drop, then delete the WAL: older snapshots go only once a
   newer one is durable, so a crash never leaves an unsynced snapshot as
   the only copy. Dropping keeps the newest durable record, which covers
   every older one (snapshots are appended in sequence order). *)
let checkpoint t =
  let bytes =
    KeyMap.fold (fun k v acc -> acc + String.length k + String.length v) t.map seq_bytes
  in
  let* () = Disk.append t.disk t.snap_file ~bytes (Snapshot { sn_seq = t.seq; sn_map = t.map }) in
  let* () = Disk.sync t.disk t.snap_file in
  let durable = Disk.durable_count t.disk t.snap_file in
  if durable > 1 then Disk.drop_prefix t.disk t.snap_file (durable - 1);
  let* () = Disk.delete t.disk t.wal_file in
  t.wal_len <- 0;
  Future.return ()

let commit t =
  let* () = Disk.sync t.disk t.wal_file in
  if t.wal_len >= t.checkpoint_every then checkpoint t else Future.return ()

let last_seq t = t.seq
let entry_count t = KeyMap.cardinal t.map
