module KeyMap = Map.Make (String)

type key_event = {
  ev : int64;
  seq : int; (* application order within a commit version *)
  set : string option; (* None = cleared *)
}

type read_result = Value of string | Cleared | Unknown

type t = {
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

let create ?(initial_version = 0L) ?(floors = []) () =
  {
    per_key = KeyMap.empty;
    seq = 0;
    tombstones = [];
    log_front = [];
    log_rear = [];
    latest = initial_version;
    oldest = initial_version;
    events = 0;
    floors;
  }

let install_floor t ~lo ~hi ~since =
  t.floors <- (lo, hi, since) :: List.filter (fun (l, h, _) -> not (l = lo && h = hi)) t.floors

let floors t = t.floors

let floor_over t ~from ~until =
  List.fold_left
    (fun acc (lo, hi, since) -> if lo < until && from < hi && since > acc then since else acc)
    Int64.min_int t.floors

let floor_at t key =
  List.fold_left
    (fun acc (lo, hi, since) -> if lo <= key && key < hi && since > acc then since else acc)
    Int64.min_int t.floors

let push_key_event t key event =
  t.per_key <-
    KeyMap.update key
      (function None -> Some [ event ] | Some l -> Some (event :: l))
      t.per_key

let apply t version (m : Mutation.t) =
  if version < t.latest then invalid_arg "Version_window.apply: version regression";
  t.seq <- t.seq + 1;
  (* Mutations within one commit version apply in submission order; the
     sequence number breaks version ties (a range clear after a set in the
     same transaction must win, and vice versa). *)
  (match m with
  | Mutation.Set (k, v) -> push_key_event t k { ev = version; seq = t.seq; set = Some v }
  | Mutation.Clear k -> push_key_event t k { ev = version; seq = t.seq; set = None }
  | Mutation.Clear_range (a, b) -> t.tombstones <- (version, t.seq, a, b) :: t.tombstones
  | Mutation.Atomic _ -> invalid_arg "Version_window.apply: unmaterialized atomic");
  t.log_rear <- (version, m) :: t.log_rear;
  t.latest <- version;
  t.events <- t.events + 1

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

(* Events at or below the key's floor are treated as nonexistent: the level
   below holds a fetched snapshot that embodies them, and stale entries from
   before the fetch (earlier dual-tag traffic, or a previous era of owning
   the range) must not shadow it. *)
let read t version key =
  let floor = floor_at t key in
  let key_ev = newest_key_event t ~floor version key in
  let tomb = newest_tombstone t ~floor version key in
  match (key_ev, tomb) with
  | None, None -> Unknown
  | Some { set; _ }, None -> ( match set with Some v -> Value v | None -> Cleared)
  | None, Some _ -> Cleared
  | Some { ev; seq; set }, Some (tv, tseq) ->
      if (tv, tseq) > (ev, seq) then Cleared
      else ( match set with Some v -> Value v | None -> Cleared)

(* Newest version at which anything in the window touched [key] — per-key
   events and covering range clears both count. Registration-time catch-up
   for watches: a watcher at version w with [last_change > w] missed a
   change and must be woken immediately. *)
let last_change t key =
  let floor = floor_at t key in
  let key_v =
    match KeyMap.find_opt key t.per_key with
    | Some ({ ev; _ } :: _) when ev > floor -> Some ev (* newest first *)
    | _ -> None
  in
  let tomb_v =
    List.fold_left
      (fun acc (v, _, a, b) ->
        if v > floor && a <= key && key < b then
          match acc with Some v' when v' >= v -> acc | _ -> Some v
        else acc)
      None t.tombstones
  in
  match (key_v, tomb_v) with
  | None, None -> None
  | Some v, None | None, Some v -> Some v
  | Some a, Some b -> Some (if a > b then a else b)

let keys t ~from ~until ~reverse =
  if reverse then
    let below, _, _ = KeyMap.split until t.per_key in
    KeyMap.to_rev_seq below |> Seq.take_while (fun (k, _) -> k >= from) |> Seq.map fst
  else KeyMap.to_seq_from from t.per_key |> Seq.take_while (fun (k, _) -> k < until) |> Seq.map fst

(* Remove index entries for a mutation that is leaving the window. Events
   with version <= bound form the oldest suffix of each newest-first list. *)
let unindex t bound (m : Mutation.t) =
  let trim key =
    t.per_key <-
      KeyMap.update key
        (function
          | None -> None
          | Some events -> (
              match List.filter (fun e -> e.ev > bound) events with
              | [] -> None
              | l -> Some l))
        t.per_key
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

let pop_through t bound =
  let rec take acc =
    match t.log_front with
    | ((v, m) as entry) :: rest when v <= bound ->
        t.log_front <- rest;
        t.events <- t.events - 1;
        unindex t bound m;
        take (entry :: acc)
    | [] when t.log_rear <> [] ->
        t.log_front <- List.rev t.log_rear;
        t.log_rear <- [];
        take acc
    | _ -> List.rev acc
  in
  let popped = List.concat_map (unhidden t) (take []) in
  if bound > t.oldest then t.oldest <- bound;
  (* Spent floors: the events they hid are gone, and [oldest] is above them. *)
  t.floors <- List.filter (fun (_, _, since) -> since > bound) t.floors;
  popped

let rollback t ~after =
  let keep (v, _) = v <= after in
  let dropped =
    List.length (List.filter (fun e -> not (keep e)) t.log_rear)
    + List.length (List.filter (fun e -> not (keep e)) t.log_front)
  in
  t.log_rear <- List.filter keep t.log_rear;
  t.log_front <- List.filter keep t.log_front;
  t.per_key <-
    KeyMap.filter_map
      (fun _ events ->
        match List.filter (fun e -> e.ev <= after) events with [] -> None | l -> Some l)
      t.per_key;
  t.tombstones <- List.filter (fun (v, _, _, _) -> v <= after) t.tombstones;
  t.events <- t.events - dropped;
  if t.latest > after then t.latest <- after;
  dropped

let latest t = t.latest
let oldest t = t.oldest
let event_count t = t.events
