(* Key-range sharding with runtime reconfiguration (paper §2.3.1, §2.5).

   Shards are kept as a sorted array of immutable records; every runtime
   mutation (split / merge / team change / move state transition) replaces
   the array, bumps the generation counter, folds itself into a history
   checksum (the swarm's shard-schedule determinism oracle) and emits a
   [shard_map_update] trace event.

   A shard mid-move carries its destination team ([dst]): reads keep being
   served by the current team until the cutover, but the *apply/tag* view
   ([tags_for_mutation], [apply_ranges_of_storage]) already includes the
   destination, so every mutation committed after [begin_move] is
   dual-tagged and reaches the newcomers through their own tLog streams
   while they fetch the snapshot. *)

type shard = {
  s_lo : string;
  s_hi : string; (* covers [s_lo, s_hi) *)
  s_team : int list;
  s_dst : int list option; (* in-flight move destination team *)
  s_started : float; (* move begin time (sim seconds); 0 when idle *)
}

type t = {
  mutable shards : shard array;
  mutable per_ss_read : (string * string) list array; (* serving view *)
  mutable per_ss_apply : (string * string) list array; (* serving + incoming *)
  mutable generation : int; (* bumped on every runtime change *)
  mutable history : int64; (* FNV-1a fold of every runtime change *)
}

(* Shard boundaries are two-byte prefixes splitting [""; "\xff\xff") evenly.
   User keys hash into them by their leading bytes; the final shard also
   covers the system key space. *)
let boundary shards i =
  if i = 0 then ""
  else if i >= shards then Types.system_key_space_end
  else begin
    let x = i * 65536 / shards in
    String.init 2 (fun b -> Char.chr ((x lsr (8 * (1 - b))) land 0xff))
  end

let machine_of_ss config ss = ss / config.Config.storage_per_machine
let rack_of_machine config m = m mod config.Config.racks

(* Pick a team for shard [i]: walk storage servers from an offset, greedily
   preferring new racks, then new machines, then anything — the §2.5
   hierarchical placement, degraded gracefully for tiny clusters.

   The walk visits servers machine-interleaved: position [p] is server
   [p / machines] of machine [p mod machines], so consecutive positions sit
   on distinct machines. When every [k] consecutive machines span as many
   racks as they can (always if [racks] divides [machines]), a team is the
   window of [k] positions at its offset; every server lies in [k] of the
   [n_ss] windows and so serves the same number of shards. With one server
   per machine the order is the identity. *)
let pick_team config n_ss i =
  let k = min config.Config.storage_replication n_ss in
  let machines = config.Config.machines in
  let server_at p =
    ((p mod machines) * config.Config.storage_per_machine) + (p / machines)
  in
  let start = i mod n_ss in
  let chosen = ref [] in
  let used_machines = ref [] and used_racks = ref [] in
  let try_pass accept =
    for d = 0 to n_ss - 1 do
      let ss = server_at ((start + d) mod n_ss) in
      if List.length !chosen < k && not (List.mem ss !chosen) then begin
        let m = machine_of_ss config ss in
        let r = rack_of_machine config m in
        if accept m r then begin
          chosen := !chosen @ [ ss ];
          used_machines := m :: !used_machines;
          used_racks := r :: !used_racks
        end
      end
    done
  in
  try_pass (fun m r -> (not (List.mem m !used_machines)) && not (List.mem r !used_racks));
  try_pass (fun m _ -> not (List.mem m !used_machines));
  try_pass (fun _ _ -> true);
  !chosen

let rebuild_per_ss t =
  let n_ss = Array.length t.per_ss_read in
  let read = Array.make n_ss [] and apply = Array.make n_ss [] in
  Array.iter
    (fun s ->
      let range = (s.s_lo, s.s_hi) in
      List.iter (fun ss -> read.(ss) <- range :: read.(ss)) s.s_team;
      let appliers =
        match s.s_dst with
        | None -> s.s_team
        | Some dst -> List.sort_uniq compare (s.s_team @ dst)
      in
      List.iter (fun ss -> apply.(ss) <- range :: apply.(ss)) appliers)
    t.shards;
  Array.iteri (fun i l -> read.(i) <- List.rev l) read;
  Array.iteri (fun i l -> apply.(i) <- List.rev l) apply;
  t.per_ss_read <- read;
  t.per_ss_apply <- apply

(* FNV-1a over the textual description of a runtime change: two runs of the
   same seed must perform byte-identical shard-schedule mutations. *)
let fnv_fold h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let team_str team = String.concat "," (List.map string_of_int team)

let record_change t ~op ~shard fields =
  t.generation <- t.generation + 1;
  let summary =
    Printf.sprintf "%s|%s|%s|%s|%d" op shard.s_lo shard.s_hi (team_str shard.s_team)
      t.generation
  in
  t.history <- fnv_fold t.history summary;
  rebuild_per_ss t;
  Fdb_sim.Trace.emit "shard_map_update"
    ([ ("op", op); ("lo", String.escaped shard.s_lo);
       ("team", team_str shard.s_team);
       ("generation", string_of_int t.generation) ]
    @ fields)

let build config =
  let n_ss = Config.storage_count config in
  let boundaries =
    match config.Config.shard_boundaries with
    | [] ->
        let shards = max 1 (n_ss * config.Config.shards_per_storage) in
        Array.init shards (fun i -> (boundary shards i, boundary shards (i + 1)))
    | splits ->
        let splits = List.sort_uniq compare splits in
        let points = ("" :: splits) @ [ Types.system_key_space_end ] in
        let arr = Array.of_list points in
        Array.init (Array.length arr - 1) (fun i -> (arr.(i), arr.(i + 1)))
  in
  let shards =
    Array.mapi
      (fun i (lo, hi) ->
        { s_lo = lo; s_hi = hi; s_team = pick_team config n_ss i; s_dst = None;
          s_started = 0.0 })
      boundaries
  in
  let t =
    {
      shards;
      per_ss_read = Array.make n_ss [];
      per_ss_apply = Array.make n_ss [];
      generation = 0;
      history = 0xcbf29ce484222325L;
    }
  in
  rebuild_per_ss t;
  t

let shard_count t = Array.length t.shards
let generation t = t.generation
let history_checksum t = t.history

(* Binary search for the shard containing [key]. *)
let shard_index t key =
  let lo = ref 0 and hi = ref (Array.length t.shards - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.shards.(mid).s_lo <= key then lo := mid else hi := mid - 1
  done;
  !lo

let shard_index_at t lo =
  let i = shard_index t lo in
  if t.shards.(i).s_lo = lo then Some i else None

let team_for_key t key = t.shards.(shard_index t key).s_team

let shard_range_for_key t key =
  let s = t.shards.(shard_index t key) in
  (s.s_lo, s.s_hi)

let shards_for_range t ~from ~until =
  if from >= until then []
  else begin
    let first = shard_index t from in
    let out = ref [] in
    let i = ref first in
    let continue = ref true in
    while !continue && !i < Array.length t.shards do
      let s = t.shards.(!i) in
      if s.s_lo >= until then continue := false
      else begin
        let f = if s.s_lo > from then s.s_lo else from in
        let u = if s.s_hi < until then s.s_hi else until in
        if f < u then out := (f, u, s.s_team) :: !out;
        incr i
      end
    done;
    List.rev !out
  end

(* Membership by binary search: the shard holding a key is the one
   [shard_index] finds, unless the key lies at or past its end (the system
   key space end). *)
let serves_key t ss key =
  let s = t.shards.(shard_index t key) in
  key < s.s_hi && List.mem ss s.s_team

let serves_range t ss ~from ~until =
  let s = t.shards.(shard_index t from) in
  until <= s.s_hi && List.mem ss s.s_team

let applies_key t ss key =
  let s = t.shards.(shard_index t key) in
  key < s.s_hi
  && (List.mem ss s.s_team || match s.s_dst with Some dst -> List.mem ss dst | None -> false)

let shards_of_storage t ss = t.per_ss_read.(ss)
let apply_ranges_of_storage t ss = t.per_ss_apply.(ss)

let tags_for_mutation t (m : Fdb_kv.Mutation.t) =
  let from, until = Fdb_kv.Mutation.key_range m in
  if from >= until then []
  else begin
    let first = shard_index t from in
    let out = ref [] in
    let i = ref first in
    let continue = ref true in
    while !continue && !i < Array.length t.shards do
      let s = t.shards.(!i) in
      if s.s_lo >= until then continue := false
      else begin
        out := s.s_team :: !out;
        (match s.s_dst with Some dst -> out := dst :: !out | None -> ());
        incr i
      end
    done;
    List.sort_uniq compare (List.concat !out)
  end

let tag_teams t = Array.map (fun s -> s.s_team) t.shards
let ranges t = Array.map (fun s -> (s.s_lo, s.s_hi)) t.shards

let pending_moves t =
  Array.to_list t.shards
  |> List.filter_map (fun s ->
         match s.s_dst with
         | Some dst -> Some (s.s_lo, s.s_hi, dst, s.s_started)
         | None -> None)

(* ---------- runtime reconfiguration ---------- *)

let replace t i s' = t.shards <- Array.mapi (fun j s -> if i = j then s' else s) t.shards

(* Runtime team reassignment (the pre-movement primitive, kept for tests and
   for healing paths that know the data is already in place). Only shrink or
   permute a team, or grow it with servers that already hold the data.
   Readers that resolved the old team learn about the change through
   Wrong_shard rejections. *)
let set_team t ~shard ~team =
  if team = [] then invalid_arg "Shard_map.set_team: empty team";
  let s = { (t.shards.(shard)) with s_team = team } in
  replace t shard s;
  record_change t ~op:"set_team" ~shard:s []

let split t ~at =
  let i = shard_index t at in
  let s = t.shards.(i) in
  if at <= s.s_lo || at >= s.s_hi then Error "split point not strictly inside a shard"
  else if s.s_dst <> None then Error "cannot split a shard mid-move"
  else begin
    let left = { s with s_hi = at } in
    let right = { s with s_lo = at } in
    t.shards <-
      Array.concat
        [ Array.sub t.shards 0 i; [| left; right |];
          Array.sub t.shards (i + 1) (Array.length t.shards - i - 1) ];
    record_change t ~op:"split" ~shard:left [ ("at", String.escaped at) ];
    Ok ()
  end

let merge_at t ~lo =
  match shard_index_at t lo with
  | None -> Error "no shard starts at the given key"
  | Some i when i + 1 >= Array.length t.shards -> Error "no successor shard to merge"
  | Some i ->
      let a = t.shards.(i) and b = t.shards.(i + 1) in
      if List.sort compare a.s_team <> List.sort compare b.s_team then
        Error "adjacent shards have different teams"
      else if a.s_dst <> None || b.s_dst <> None then Error "cannot merge mid-move"
      else begin
        let merged = { a with s_hi = b.s_hi } in
        t.shards <-
          Array.concat
            [ Array.sub t.shards 0 i; [| merged |];
              Array.sub t.shards (i + 2) (Array.length t.shards - i - 2) ];
        record_change t ~op:"merge" ~shard:merged [];
        Ok ()
      end

let begin_move t ~lo ~dst =
  let dst = List.sort_uniq compare dst in
  match shard_index_at t lo with
  | None -> Error "no shard starts at the given key"
  | Some i ->
      let s = t.shards.(i) in
      if dst = [] then Error "empty destination team"
      else if s.s_dst <> None then Error "shard already moving"
      else if List.exists (fun ss -> ss < 0 || ss >= Array.length t.per_ss_read) dst
      then Error "destination out of range"
      else if dst = List.sort compare s.s_team then Error "destination equals team"
      else begin
        let s' = { s with s_dst = Some dst; s_started = Fdb_sim.Engine.now () } in
        replace t i s';
        record_change t ~op:"begin_move" ~shard:s' [ ("dst", team_str dst) ];
        Ok (s.s_lo, s.s_hi, s.s_team)
      end

(* The cutover: a single synchronous map mutation (no scheduler yield), so
   no reader can observe a half-moved shard — before it the old team serves
   every key of the shard, after it the new team serves every key. [dst]
   must match the pending move: a concurrent abort + re-move must not be
   committed by a stale mover. *)
let commit_move t ~lo ~dst =
  let dst = List.sort_uniq compare dst in
  match shard_index_at t lo with
  | None -> Error "no shard starts at the given key"
  | Some i ->
      let s = t.shards.(i) in
      (match s.s_dst with
      | Some d when List.sort compare d = dst ->
          let s' = { s with s_team = d; s_dst = None; s_started = 0.0 } in
          replace t i s';
          record_change t ~op:"commit_move" ~shard:s' [];
          Ok ()
      | Some _ -> Error "pending move has a different destination"
      | None -> Error "shard is not moving")

let abort_move t ~lo =
  match shard_index_at t lo with
  | None -> Error "no shard starts at the given key"
  | Some i ->
      let s = t.shards.(i) in
      (match s.s_dst with
      | None -> Error "shard is not moving"
      | Some dst ->
          let s' = { s with s_dst = None; s_started = 0.0 } in
          replace t i s';
          record_change t ~op:"abort_move" ~shard:s' [ ("dst", team_str dst) ];
          Ok ())
