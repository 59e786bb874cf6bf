open Fdb_core
module Mutation = Fdb_kv.Mutation

let map = Shard_map.build Config.default
let config = Config.default

let test_covers_keyspace () =
  let ranges = Shard_map.ranges map in
  Alcotest.(check string) "starts at empty" "" (fst ranges.(0));
  Alcotest.(check string) "ends at system end" Types.system_key_space_end
    (snd ranges.(Array.length ranges - 1));
  Array.iteri
    (fun i (_, hi) ->
      if i < Array.length ranges - 1 then
        Alcotest.(check string) "contiguous" hi (fst ranges.(i + 1)))
    ranges

let test_team_sizes () =
  Array.iter
    (fun team ->
      Alcotest.(check int) "replication degree" config.Config.storage_replication
        (List.length team);
      Alcotest.(check int) "distinct members" (List.length team)
        (List.length (List.sort_uniq compare team)))
    (Shard_map.tag_teams map)

let test_teams_span_machines () =
  let machine ss = ss / config.Config.storage_per_machine in
  Array.iter
    (fun team ->
      let machines = List.sort_uniq compare (List.map machine team) in
      Alcotest.(check int) "one process per machine" (List.length team)
        (List.length machines))
    (Shard_map.tag_teams map)

let test_key_lookup_consistent () =
  List.iter
    (fun key ->
      let team = Shard_map.team_for_key map key in
      let fragment = Shard_map.shards_for_range map ~from:key ~until:(Types.next_key key) in
      match fragment with
      | [ (_, _, team') ] -> Alcotest.(check (list int)) "same team" team team'
      | _ -> Alcotest.fail "single-key range must be one fragment")
    [ ""; "a"; "hello"; "zzz"; "\x7f\xff"; "\xfe" ]

let test_range_fragments () =
  let fragments = Shard_map.shards_for_range map ~from:"" ~until:Types.key_space_end in
  Alcotest.(check bool) "multiple fragments over whole space" true
    (List.length fragments > 1);
  (* fragments must tile the range *)
  let rec check prev = function
    | [] -> Alcotest.(check bool) "reaches end" true (prev >= Types.key_space_end)
    | (f, u, _) :: rest ->
        Alcotest.(check string) "tiles" prev f;
        Alcotest.(check bool) "non-empty" true (f < u);
        check u rest
  in
  check "" fragments

let test_empty_range () =
  Alcotest.(check int) "empty range" 0
    (List.length (Shard_map.shards_for_range map ~from:"b" ~until:"a"))

let test_tags_for_mutation () =
  let tags = Shard_map.tags_for_mutation map (Mutation.Set ("hello", "v")) in
  Alcotest.(check (list int)) "set tags = its team" (List.sort compare (Shard_map.team_for_key map "hello")) (List.sort compare tags);
  let wide = Shard_map.tags_for_mutation map (Mutation.Clear_range ("", Types.key_space_end)) in
  Alcotest.(check bool) "range clear touches many" true (List.length wide > List.length tags)

let test_explicit_boundaries () =
  let config' = { config with Config.shard_boundaries = [ "m" ] } in
  let m = Shard_map.build config' in
  Alcotest.(check int) "two shards" 2 (Shard_map.shard_count m);
  Alcotest.(check bool) "split at m" true
    (Shard_map.team_for_key m "a" <> Shard_map.team_for_key m "z"
    || Shard_map.team_for_key m "a" = Shard_map.team_for_key m "z")

let test_shards_of_storage_roundtrip () =
  let n = Config.storage_count config in
  for ss = 0 to n - 1 do
    List.iter
      (fun (lo, _) ->
        Alcotest.(check bool) "team contains server" true
          (List.mem ss (Shard_map.team_for_key map lo)))
      (Shard_map.shards_of_storage map ss)
  done

(* ---------- initial placement: balance and fault domains ---------- *)

(* The index-order walk placement used before teams were machine-interleaved:
   from offset [i mod n_ss], pick new-rack-and-machine, then new-machine,
   then any servers. With one server per machine the interleaved walk must
   reproduce it exactly. *)
let index_order_teams config =
  let n_ss = Config.storage_count config in
  let k = min config.Config.storage_replication n_ss in
  let machine ss = ss / config.Config.storage_per_machine in
  let rack ss = machine ss mod config.Config.racks in
  let uses f chosen ss = List.exists (fun c -> f c = f ss) chosen in
  let team i =
    let walk = List.init n_ss (fun d -> (i + d) mod n_ss) in
    let pass accept chosen =
      List.fold_left
        (fun chosen ss ->
          if List.length chosen < k && (not (List.mem ss chosen)) && accept chosen ss
          then chosen @ [ ss ]
          else chosen)
        chosen walk
    in
    []
    |> pass (fun c ss -> (not (uses machine c ss)) && not (uses rack c ss))
    |> pass (fun c ss -> not (uses machine c ss))
    |> pass (fun _ _ -> true)
  in
  Array.init (n_ss * config.Config.shards_per_storage) team

let shards_per_server config m =
  List.init (Config.storage_count config) (fun ss ->
      List.length (Shard_map.shards_of_storage m ss))

(* Teams are windows of k consecutive machines (cyclically) when each such
   window covers as many racks as it can: k, or every rack in use. Rack
   numbering wraps at [machines], so a rack count that does not tile the
   machines can break this — for the old walk as much as the new one. *)
let windows_cover_racks config =
  let machines = config.Config.machines in
  let k = min config.Config.storage_replication (Config.storage_count config) in
  let racks_in_use = min config.Config.racks machines in
  List.for_all
    (fun start ->
      let racks =
        List.init k (fun d -> (start + d) mod machines mod config.Config.racks)
      in
      List.length (List.sort_uniq compare racks) = min k racks_in_use)
    (List.init machines Fun.id)

let check_placement config =
  let m = Shard_map.build config in
  let n_ss = Config.storage_count config in
  let k = min config.Config.storage_replication n_ss in
  let machine ss = ss / config.Config.storage_per_machine in
  Array.iter
    (fun team ->
      Alcotest.(check int) "team size" k (List.length team);
      Alcotest.(check int) "team spans k machines" k
        (List.length (List.sort_uniq compare (List.map machine team))))
    (Shard_map.tag_teams m);
  if config.Config.storage_per_machine = 1 then
    Alcotest.(check (array (list int)))
      "one server per machine: index-order teams" (index_order_teams config)
      (Shard_map.tag_teams m);
  (* n_ss x shards_per_storage shards, so equal shares are exact. *)
  if windows_cover_racks config then
    Alcotest.(check (list int)) "every server serves k x shards_per_storage"
      (List.init n_ss (fun _ -> k * config.Config.shards_per_storage))
      (shards_per_server config m)

let test_placement_fixed_configs () =
  List.iter
    (fun (name, config, per_server) ->
      check_placement config;
      Alcotest.(check (list int)) (name ^ ": shards per server")
        (List.init (Config.storage_count config) (fun _ -> per_server))
        (shards_per_server config (Shard_map.build config)))
    [ ("default", Config.default, 6);
      ("scaled 24", Config.scaled ~machines:24, 12);
      ("test_small", Config.test_small, 4) ]

let gen_placement_config =
  QCheck.Gen.(
    let* machines = int_range 3 24 in
    let* storage_per_machine = int_range 1 14 in
    let* racks = int_range 1 machines in
    let* storage_replication = int_range 2 3 in
    let+ shards_per_storage = int_range 1 4 in
    { Config.default with
      Config.machines; storage_per_machine; racks; storage_replication;
      shards_per_storage })

let qcheck_placement =
  let print c =
    Printf.sprintf "machines=%d per_machine=%d racks=%d replication=%d shards_per_ss=%d"
      c.Config.machines c.Config.storage_per_machine c.Config.racks
      c.Config.storage_replication c.Config.shards_per_storage
  in
  QCheck.Test.make ~name:"placement balanced and machine-spread" ~count:200
    (QCheck.make ~print gen_placement_config) (fun config ->
      check_placement config;
      true)

(* ---------- runtime reconfiguration: edge cases ---------- *)

(* split/merge mutators emit trace events, so they need a live engine. *)
let in_engine f =
  Fdb_sim.Engine.run ~seed:1L (fun () ->
      f ();
      Fdb_sim.Future.return ())

let check_tiles m =
  let ranges = Shard_map.ranges m in
  Alcotest.(check string) "starts at empty" "" (fst ranges.(0));
  Alcotest.(check string) "ends at system end" Types.system_key_space_end
    (snd ranges.(Array.length ranges - 1));
  Array.iteri
    (fun i (lo, hi) ->
      Alcotest.(check bool) "non-empty shard" true (lo < hi);
      if i < Array.length ranges - 1 then
        Alcotest.(check string) "contiguous" hi (fst ranges.(i + 1)))
    ranges

(* shards_for_range must agree with per-key lookups before and after every
   reconfiguration. *)
let check_range_agreement m ~from ~until =
  let fragments = Shard_map.shards_for_range m ~from ~until in
  let rec walk prev = function
    | [] -> Alcotest.(check bool) "fragments reach until" true (prev >= until)
    | (f, u, team) :: rest ->
        Alcotest.(check string) "fragments tile" prev f;
        Alcotest.(check (list int)) "fragment team = key lookup" (Shard_map.team_for_key m f) team;
        let lo, hi = Shard_map.shard_range_for_key m f in
        Alcotest.(check bool) "fragment within its shard" true (lo <= f && u <= hi);
        walk u rest
  in
  if from < until then walk from fragments
  else Alcotest.(check int) "empty range" 0 (List.length fragments)

(* The O(log shards) membership tests must agree with the per-server range
   lists they replace, at shard edges and past the last shard. *)
let check_membership ~keys m =
  let within ranges key = List.exists (fun (lo, hi) -> lo <= key && key < hi) ranges in
  for ss = 0 to Config.storage_count config - 1 do
    let read = Shard_map.shards_of_storage m ss and apply = Shard_map.apply_ranges_of_storage m ss in
    List.iter
      (fun key ->
        Alcotest.(check bool) "serves_key" (within read key) (Shard_map.serves_key m ss key);
        Alcotest.(check bool) "applies_key" (within apply key) (Shard_map.applies_key m ss key);
        List.iter
          (fun until ->
            if key < until then
              Alcotest.(check bool) "serves_range"
                (List.exists (fun (lo, hi) -> lo <= key && until <= hi) read)
                (Shard_map.serves_range m ss ~from:key ~until))
          keys)
      keys
  done

let test_membership () =
  in_engine @@ fun () ->
  let m = Shard_map.build config in
  let keys () =
    let edges = Array.to_list (Shard_map.ranges m) |> List.map fst in
    (Types.system_key_space_end :: "\xff\xff/x" :: edges) @ List.map Types.next_key edges
  in
  check_membership ~keys:(keys ()) m;
  let lo, _ = Shard_map.shard_range_for_key m "k" in
  let team = Shard_map.team_for_key m "k" in
  let dst = List.filter (fun ss -> not (List.mem ss team)) [ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "begin_move" true
    (Result.is_ok (Shard_map.begin_move m ~lo ~dst:[ List.hd dst ]));
  Alcotest.(check bool) "split" true (Result.is_ok (Shard_map.split m ~at:"a"));
  check_membership ~keys:(keys ()) m

let probe_ranges = [ ("", Types.key_space_end); ("a", "z"); ("k", "k\x00"); ("", "k") ]

let test_split_edge_cases () =
  in_engine @@ fun () ->
  let m = Shard_map.build config in
  let g0 = Shard_map.generation m in
  (* split strictly inside a shard *)
  Alcotest.(check bool) "split at k" true (Result.is_ok (Shard_map.split m ~at:"k"));
  Alcotest.(check bool) "generation bumped" true (Shard_map.generation m > g0);
  (* single-key shard ["k", "k\x00") *)
  Alcotest.(check bool) "split single-key shard off" true
    (Result.is_ok (Shard_map.split m ~at:(Types.next_key "k")));
  let lo, hi = Shard_map.shard_range_for_key m "k" in
  Alcotest.(check string) "single-key lo" "k" lo;
  Alcotest.(check string) "single-key hi" (Types.next_key "k") hi;
  (* splitting at an existing boundary must fail and not bump generation *)
  let g1 = Shard_map.generation m in
  Alcotest.(check bool) "split at boundary rejected" true
    (Result.is_error (Shard_map.split m ~at:"k"));
  Alcotest.(check bool) "split at empty key rejected" true
    (Result.is_error (Shard_map.split m ~at:""));
  Alcotest.(check int) "failed splits do not bump generation" g1 (Shard_map.generation m);
  check_tiles m;
  List.iter (fun (from, until) -> check_range_agreement m ~from ~until) probe_ranges

let test_merge_whole_keyspace () =
  in_engine @@ fun () ->
  let m = Shard_map.build config in
  (* Give every shard the same team so merges are legal, then collapse the
     whole keyspace into one shard. *)
  let team = Shard_map.team_for_key m "" in
  for s = 0 to Shard_map.shard_count m - 1 do
    Shard_map.set_team m ~shard:s ~team
  done;
  let merged = ref true in
  while !merged do
    merged := Result.is_ok (Shard_map.merge_at m ~lo:"")
  done;
  Alcotest.(check int) "whole keyspace is one shard" 1 (Shard_map.shard_count m);
  let lo, hi = Shard_map.shard_range_for_key m "anything" in
  Alcotest.(check string) "lo" "" lo;
  Alcotest.(check string) "hi" Types.system_key_space_end hi;
  Alcotest.(check bool) "merging the last shard fails" true
    (Result.is_error (Shard_map.merge_at m ~lo:""));
  check_tiles m;
  List.iter (fun (from, until) -> check_range_agreement m ~from ~until) probe_ranges;
  (* and the collapsed map can be split again *)
  Alcotest.(check bool) "split after total merge" true
    (Result.is_ok (Shard_map.split m ~at:"m"));
  check_tiles m

(* ---------- qcheck model: the map vs a flat assoc-list reference ---------- *)

module Model = struct
  (* One entry per shard, ascending: (lo, hi, serving team, move dst). *)
  type entry = { lo : string; hi : string; team : int list; dst : int list option }

  let of_map m =
    let ranges = Shard_map.ranges m in
    let teams = Shard_map.tag_teams m in
    List.init (Array.length ranges) (fun i ->
        let lo, hi = ranges.(i) in
        { lo; hi; team = teams.(i); dst = None })

  let split m at =
    let rec go = function
      | [] -> None
      | e :: rest when e.lo < at && at < e.hi ->
          if e.dst <> None then None
          else Some ({ e with hi = at } :: { e with lo = at } :: rest)
      | e :: rest -> Option.map (fun r -> e :: r) (go rest)
    in
    go m

  let merge_at m lo =
    let rec go = function
      | a :: b :: rest when a.lo = lo ->
          if
            List.sort compare a.team = List.sort compare b.team
            && a.dst = None && b.dst = None
          then
            Some ({ a with hi = b.hi } :: rest)
          else None
      | e :: rest -> Option.map (fun r -> e :: r) (go rest)
      | [] -> None
    in
    go m

  let begin_move m lo dst ~n_ss =
    let ok_dst =
      dst <> [] && List.for_all (fun s -> s >= 0 && s < n_ss) dst
    in
    let rec go = function
      | e :: rest when e.lo = lo ->
          if e.dst = None && ok_dst && dst <> List.sort compare e.team then
            Some ({ e with dst = Some dst } :: rest)
          else None
      | e :: rest -> Option.map (fun r -> e :: r) (go rest)
      | [] -> None
    in
    go m

  let commit_move m lo dst =
    let rec go = function
      | e :: rest when e.lo = lo ->
          if e.dst = Some dst then Some ({ e with team = dst; dst = None } :: rest)
          else None
      | e :: rest -> Option.map (fun r -> e :: r) (go rest)
      | [] -> None
    in
    go m

  let abort_move m lo =
    let rec go = function
      | e :: rest when e.lo = lo ->
          if e.dst <> None then Some ({ e with dst = None } :: rest) else None
      | e :: rest -> Option.map (fun r -> e :: r) (go rest)
      | [] -> None
    in
    go m

  let team_for_key m key =
    match List.find_opt (fun e -> e.lo <= key && key < e.hi) m with
    | Some e -> e.team
    | None -> []

  let pending m = List.filter_map (fun e -> Option.map (fun d -> (e.lo, d)) e.dst) m
end

type model_op =
  | Op_split of string
  | Op_merge of int
  | Op_begin of int * int list
  | Op_commit of int
  | Op_abort of int

let gen_model_ops =
  let n_ss = Config.storage_count Config.default in
  QCheck.Gen.(
    let key = map (fun s -> "k" ^ s) (string_size ~gen:(char_range 'a' 'f') (int_range 1 3)) in
    let dst =
      map
        (fun l -> List.sort_uniq compare (List.map (fun i -> i mod n_ss) l))
        (list_size (int_range 1 3) (int_range 0 (2 * n_ss)))
    in
    list_size (int_range 1 60)
      (frequency
         [
           (3, map (fun k -> Op_split k) key);
           (2, map (fun i -> Op_merge i) small_nat);
           (2, map2 (fun i d -> Op_begin (i, d)) small_nat dst);
           (2, map (fun i -> Op_commit i) small_nat);
           (1, map (fun i -> Op_abort i) small_nat);
         ]))

let membership_probes = [ ""; "a"; "k"; "kaa"; "kaa\x00"; "kcc"; "kf"; "kff"; "z"; "\xff\xff" ]

let qcheck_model_agreement =
  let n_ss = Config.storage_count Config.default in
  QCheck.Test.make ~name:"split/merge/move agree with flat reference" ~count:150
    (QCheck.make gen_model_ops) (fun ops ->
      in_engine (fun () ->
          let m = Shard_map.build Config.default in
          let model = ref (Model.of_map m) in
          List.iter
            (fun op ->
              let g0 = Shard_map.generation m in
              let index i = i mod List.length !model in
              let applied =
                match op with
                | Op_split at -> (
                    match Model.split !model at with
                    | Some model' ->
                        Alcotest.(check bool) "split ok" true
                          (Result.is_ok (Shard_map.split m ~at));
                        model := model';
                        true
                    | None ->
                        Alcotest.(check bool) "split rejected" true
                          (Result.is_error (Shard_map.split m ~at));
                        false)
                | Op_merge i -> (
                    let lo = (List.nth !model (index i)).Model.lo in
                    match Model.merge_at !model lo with
                    | Some model' ->
                        Alcotest.(check bool) "merge ok" true
                          (Result.is_ok (Shard_map.merge_at m ~lo));
                        model := model';
                        true
                    | None ->
                        Alcotest.(check bool) "merge rejected" true
                          (Result.is_error (Shard_map.merge_at m ~lo));
                        false)
                | Op_begin (i, dst) -> (
                    let lo = (List.nth !model (index i)).Model.lo in
                    match Model.begin_move !model lo dst ~n_ss with
                    | Some model' ->
                        Alcotest.(check bool) "begin_move ok" true
                          (Result.is_ok (Shard_map.begin_move m ~lo ~dst));
                        model := model';
                        true
                    | None ->
                        Alcotest.(check bool) "begin_move rejected" true
                          (Result.is_error (Shard_map.begin_move m ~lo ~dst));
                        false)
                | Op_commit i -> (
                    let e = List.nth !model (index i) in
                    let lo = e.Model.lo in
                    let dst = match e.Model.dst with Some d -> d | None -> [ 0 ] in
                    match Model.commit_move !model lo dst with
                    | Some model' ->
                        Alcotest.(check bool) "commit_move ok" true
                          (Result.is_ok (Shard_map.commit_move m ~lo ~dst));
                        model := model';
                        true
                    | None ->
                        Alcotest.(check bool) "commit_move rejected" true
                          (Result.is_error (Shard_map.commit_move m ~lo ~dst));
                        false)
                | Op_abort i -> (
                    let lo = (List.nth !model (index i)).Model.lo in
                    match Model.abort_move !model lo with
                    | Some model' ->
                        Alcotest.(check bool) "abort_move ok" true
                          (Result.is_ok (Shard_map.abort_move m ~lo));
                        model := model';
                        true
                    | None ->
                        Alcotest.(check bool) "abort_move rejected" true
                          (Result.is_error (Shard_map.abort_move m ~lo));
                        false)
              in
              (* generation: bumped exactly when the op landed *)
              if applied then
                Alcotest.(check bool) "generation bumped" true (Shard_map.generation m > g0)
              else Alcotest.(check int) "generation unchanged" g0 (Shard_map.generation m);
              (* boundaries: coverage and non-overlap, and equal to the model *)
              check_tiles m;
              check_membership ~keys:membership_probes m;
              Alcotest.(check (list (pair string string)))
                "boundaries match model"
                (List.map (fun e -> (e.Model.lo, e.Model.hi)) !model)
                (Array.to_list (Shard_map.ranges m));
              (* serving teams at probe keys *)
              List.iter
                (fun key ->
                  Alcotest.(check (list int))
                    ("team at " ^ key)
                    (Model.team_for_key !model key)
                    (Shard_map.team_for_key m key))
                [ ""; "a"; "kaa"; "kcc"; "kff"; "z"; "\xfe" ];
              (* pending moves agree *)
              Alcotest.(check (list (pair string (list int))))
                "pending moves match model" (Model.pending !model)
                (List.map (fun (lo, _, d, _) -> (lo, d)) (Shard_map.pending_moves m)))
            ops);
      true)

let suite =
  [
    Alcotest.test_case "covers keyspace" `Quick test_covers_keyspace;
    Alcotest.test_case "team sizes" `Quick test_team_sizes;
    Alcotest.test_case "teams span machines" `Quick test_teams_span_machines;
    Alcotest.test_case "key lookup consistent" `Quick test_key_lookup_consistent;
    Alcotest.test_case "range fragments tile" `Quick test_range_fragments;
    Alcotest.test_case "empty range" `Quick test_empty_range;
    Alcotest.test_case "tags for mutation" `Quick test_tags_for_mutation;
    Alcotest.test_case "explicit boundaries" `Quick test_explicit_boundaries;
    Alcotest.test_case "shards_of_storage roundtrip" `Quick test_shards_of_storage_roundtrip;
    Alcotest.test_case "placement on fixed configs" `Quick test_placement_fixed_configs;
    Property.to_alcotest qcheck_placement;
    Alcotest.test_case "split edge cases" `Quick test_split_edge_cases;
    Alcotest.test_case "merge whole keyspace" `Quick test_merge_whole_keyspace;
    Alcotest.test_case "membership by binary search" `Quick test_membership;
    Property.to_alcotest qcheck_model_agreement;
  ]
