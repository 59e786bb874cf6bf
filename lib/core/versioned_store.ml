open Fdb_sim
open Future.Syntax
module Mutation = Fdb_kv.Mutation
module Pstore = Fdb_kv.Persistent_store
module KeyMap = Map.Make (String)

(* The image's own records live above [system_key_space_end] (never served,
   never clipped by shard filters): the version it holds, and its floors,
   persisted whole as one record. *)
let version_key = "\xff\xff/ss/version"
let floors_key = "\xff\xff/ss/floors"

let floors_record = function
  | [] -> Mutation.Clear floors_key
  | floors ->
      let triple (lo, hi, since) = Tuple.[ Bytes lo; Bytes hi; Int since ] in
      Mutation.Set (floors_key, Tuple.pack (List.concat_map triple floors))

let rec floors_of_tuple = function
  | Tuple.Bytes lo :: Tuple.Bytes hi :: Tuple.Int since :: rest ->
      (lo, hi, since) :: floors_of_tuple rest
  | [] -> []
  | _ -> invalid_arg "Versioned_store: malformed floors record"

type key_event = {
  ev : int64;
  seq : int; (* application order within a commit version *)
  set : string option; (* None = cleared *)
}

type t = {
  image : Pstore.t;
  mutable durable : Types.version;
  mutable per_key : key_event list KeyMap.t; (* newest event first *)
  mutable seq : int;
  mutable tombstones : (int64 * int * string * string) list; (* newest first *)
  mutable log_front : (int64 * Mutation.t) list; (* oldest first *)
  mutable log_rear : (int64 * Mutation.t) list; (* newest first *)
  mutable latest : int64;
  mutable oldest : int64;
  mutable events : int;
  mutable floors : (string * string * int64) list; (* newest install first *)
}

(* The log replays from the durable version, which may sit below a fetched
   snapshot: the floors that hid its mutations before the crash hide them. *)
let recover ~disk ~prefix =
  let* image = Pstore.recover ~disk ~prefix () in
  let durable =
    match Pstore.get image version_key with
    | Some bytes -> Types.version_of_bytes bytes
    | None -> 0L
  in
  let floors =
    Option.fold ~none:[] ~some:(fun r -> floors_of_tuple (Tuple.unpack r))
      (Pstore.get image floors_key)
  in
  Future.return
    {
      image;
      durable;
      per_key = KeyMap.empty;
      seq = 0;
      tombstones = [];
      log_front = [];
      log_rear = [];
      latest = durable;
      oldest = durable;
      events = 0;
      floors;
    }

let durable t = t.durable

let floor_over t ~from ~until =
  List.fold_left
    (fun acc (lo, hi, since) -> if lo < until && from < hi && since > acc then since else acc)
    Int64.min_int t.floors

let floor_at t key =
  List.fold_left
    (fun acc (lo, hi, since) -> if lo <= key && key < hi && since > acc then since else acc)
    Int64.min_int t.floors

let newest_key_event t ~floor version key =
  match KeyMap.find_opt key t.per_key with
  | None -> None
  | Some events -> List.find_opt (fun e -> e.ev <= version && e.ev > floor) events

let newest_tombstone t ~floor version key =
  List.fold_left
    (fun acc (v, sq, a, b) ->
      if v <= version && v > floor && a <= key && key < b then
        match acc with Some (v', sq') when (v', sq') >= (v, sq) -> acc | _ -> Some (v, sq)
      else acc)
    None t.tombstones

(* Events at or below the key's floor are treated as nonexistent: the image
   holds a fetched snapshot that embodies them, and stale entries from
   before the fetch (earlier dual-tag traffic, or a previous era of owning
   the range) must not shadow it. *)
let get t version key =
  let floor = floor_at t key in
  match (newest_key_event t ~floor version key, newest_tombstone t ~floor version key) with
  | None, None -> Pstore.get t.image key
  | Some { set; _ }, None -> set
  | None, Some _ -> None
  | Some { ev; seq; set }, Some (tv, tseq) -> if (tv, tseq) > (ev, seq) then None else set

let last_change t key =
  let floor = floor_at t key in
  let key_v = Option.map (fun e -> e.ev) (newest_key_event t ~floor Int64.max_int key) in
  match (key_v, Option.map fst (newest_tombstone t ~floor Int64.max_int key)) with
  | Some a, Some b -> Some (max a b)
  | v, None | None, v -> v

let push_key_event t key event =
  t.per_key <-
    KeyMap.update key
      (function None -> Some [ event ] | Some l -> Some (event :: l))
      t.per_key

let apply t version (m : Mutation.t) =
  if version < t.latest then invalid_arg "Versioned_store.apply: version regression";
  t.seq <- t.seq + 1;
  (* Mutations within one commit version apply in submission order; the
     sequence number breaks version ties (a range clear after a set in the
     same transaction must win, and vice versa). *)
  let concrete =
    match m with
    | Mutation.Set (k, v) ->
        push_key_event t k { ev = version; seq = t.seq; set = Some v };
        m
    | Mutation.Clear k ->
        push_key_event t k { ev = version; seq = t.seq; set = None };
        m
    | Mutation.Clear_range (a, b) ->
        t.tombstones <- (version, t.seq, a, b) :: t.tombstones;
        m
    | Mutation.Atomic (kind, key, operand) -> (
        (* Reads at [version] itself: earlier ops of this version stack. *)
        let set = Mutation.atomic_result kind ~old_value:(get t version key) operand in
        push_key_event t key { ev = version; seq = t.seq; set };
        match set with Some v -> Mutation.Set (key, v) | None -> Mutation.Clear key)
  in
  t.log_rear <- (version, concrete) :: t.log_rear;
  t.latest <- version;
  t.events <- t.events + 1;
  concrete

let keys t ~from ~until ~reverse =
  if reverse then
    let below, _, _ = KeyMap.split until t.per_key in
    KeyMap.to_rev_seq below |> Seq.take_while (fun (k, _) -> k >= from) |> Seq.map fst
  else KeyMap.to_seq_from from t.per_key |> Seq.take_while (fun (k, _) -> k < until) |> Seq.map fst

(* Merge two key sequences, each in scan order under [cmp], into one
   without duplicates. *)
let rec merge_keys cmp a b () =
  match (a (), b ()) with
  | Seq.Nil, rest | rest, Seq.Nil -> rest
  | (Seq.Cons (x, a') as na), (Seq.Cons (y, b') as nb) ->
      let c = cmp x y in
      if c = 0 then Seq.Cons (x, merge_keys cmp a' b')
      else if c < 0 then Seq.Cons (x, merge_keys cmp a' (fun () -> nb))
      else Seq.Cons (y, merge_keys cmp (fun () -> na) b')

(* The image's keys and the window's keys, merged lazily in scan order;
   visibility is decided per key at [version]. *)
let read_range t version ~from ~until ~reverse ~limit ~byte_limit =
  let cmp = if reverse then fun a b -> compare b a else compare in
  let rec scan candidates acc count bytes =
    match candidates () with
    | Seq.Nil -> (List.rev acc, false)
    | Seq.Cons _ when count >= limit || bytes >= byte_limit -> (List.rev acc, true)
    | Seq.Cons (k, rest) -> (
        match get t version k with
        | Some v ->
            scan rest ((k, v) :: acc) (count + 1) (bytes + String.length k + String.length v)
        | None -> scan rest acc count bytes)
  in
  scan
    (merge_keys cmp
       (Seq.map fst (Pstore.range t.image ~from ~until ~reverse))
       (keys t ~from ~until ~reverse))
    [] 0 0

let image_range t ~from ~until = Pstore.range t.image ~from ~until ~reverse:false

(* Floor registration and the image write are synchronous with each other
   (no yield between them), so no pop can interleave. *)
let install t ~lo ~hi ~since rows =
  t.floors <- (lo, hi, since) :: List.filter (fun (l, h, _) -> not (l = lo && h = hi)) t.floors;
  let* () =
    Pstore.apply t.image
      ((Mutation.Clear_range (lo, hi) :: List.map (fun (k, v) -> Mutation.Set (k, v)) rows)
      @ [ floors_record t.floors ])
  in
  Pstore.commit t.image

(* A key's events that satisfy [p]; [None] drops the key from the index. *)
let events_where p events = match List.filter p events with [] -> None | l -> Some l

(* Remove index entries for a mutation that is leaving the window. Events
   with version <= bound form the oldest suffix of each newest-first list. *)
let unindex t bound (m : Mutation.t) =
  let trim key =
    let later = events_where (fun e -> e.ev > bound) in
    t.per_key <- KeyMap.update key (fun l -> Option.bind l later) t.per_key
  in
  match m with
  | Mutation.Set (k, _) | Mutation.Clear k -> trim k
  | Mutation.Clear_range _ ->
      t.tombstones <- List.filter (fun (v, _, _, _) -> v > bound) t.tombstones
  | Mutation.Atomic _ -> ()

(* The pieces of segment [(f, u)] outside [\[lo, hi)]. *)
let subtract_range (f, u) (lo, hi) =
  if hi <= f || u <= lo then [ (f, u) ] else List.filter (fun (f, u) -> f < u) [ (f, lo); (hi, u) ]

(* The parts of a popped mutation that no floor hides: a fetched snapshot
   already embodies them, and an older value would overwrite it. *)
let unhidden t (v, (m : Mutation.t)) =
  match m with
  | Mutation.Set (k, _) | Mutation.Clear k -> if v <= floor_at t k then [] else [ m ]
  | Mutation.Clear_range (a, b) ->
      List.fold_left
        (fun segs (lo, hi, since) ->
          if since < v then segs else List.concat_map (fun seg -> subtract_range seg (lo, hi)) segs)
        [ (a, b) ] t.floors
      |> List.map (fun (f, u) -> Mutation.Clear_range (f, u))
  | Mutation.Atomic _ -> [ m ]

let make_durable t target =
  let rec take acc =
    match t.log_front with
    | ((v, m) as entry) :: rest when v <= target ->
        t.log_front <- rest;
        t.events <- t.events - 1;
        unindex t target m;
        take (entry :: acc)
    | [] when t.log_rear <> [] ->
        t.log_front <- List.rev t.log_rear;
        t.log_rear <- [];
        take acc
    | _ -> List.rev acc
  in
  let popped = List.concat_map (unhidden t) (take []) in
  if target > t.oldest then t.oldest <- target;
  (* Spent floors: the events they hid are gone, and [oldest] is above them. *)
  let live, spent = List.partition (fun (_, _, since) -> since > target) t.floors in
  t.floors <- live;
  let record = if spent = [] then [] else [ floors_record live ] in
  let marker = Mutation.Set (version_key, Types.version_to_bytes target) in
  let* () = Pstore.apply t.image (popped @ record @ [ marker ]) in
  let* () = Pstore.commit t.image in
  (* Monotone re-read after the image yields (rule R5). *)
  if target > t.durable then t.durable <- target;
  Future.return ()

let rollback t ~after =
  let keep (v, _) = v <= after in
  t.log_rear <- List.filter keep t.log_rear;
  t.log_front <- List.filter keep t.log_front;
  let dropped = t.events - List.length t.log_front - List.length t.log_rear in
  t.per_key <- KeyMap.filter_map (fun _ -> events_where (fun e -> e.ev <= after)) t.per_key;
  t.tombstones <- List.filter (fun (v, _, _, _) -> v <= after) t.tombstones;
  t.events <- t.events - dropped;
  if t.latest > after then t.latest <- after;
  dropped

let oldest t = t.oldest
let event_count t = t.events
