(* Reading result files back.

   fdb_bench compare: N result files from the parent commit against N from
   the change, one row per workload and end-to-end metric. Each side gets
   its median and quartiles; pairs are matched in the order given (run
   them alternately). A row reads
     worse       the change's median is worse by more than the bound,
     better      the change won at least 9 of 10 pairs and the medians
                 differ by more than the parent's quartile spread,
     unresolved  the parent's own spread is wider than the bound (unless
                 every change run beat every parent run),
     same        otherwise.
   Exits 1 when any row is worse.

   fdb_bench summarize: the baseline of a set of result files, traced and
   untraced: each workload's seed-1 values and, per metric reported by more
   than one file, the median, quartiles and spread (quartile distance over
   median) across the files.

   A result file is a run's whole standard output: the first line names the
   workload and seed, the last is the result. *)

type bound = { better_high : bool; bound : float }

(* Python's statistics.quantiles(xs, n=4) (the "exclusive" method). *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

type result = { workload : string; seed : int64; seconds : float; metrics : (string * float) list }

let read_result path =
  match String.split_on_char '\n' (String.trim (Json.read_file path)) with
  | [] -> failwith (path ^ ": empty")
  | first :: _ as all ->
      let workload, seed, seconds =
        match
          Scanf.sscanf_opt first "fdb_bench: workload %s@, seed %Ld, %f s," (fun w s t -> (w, s, t))
        with
        | Some header -> header
        | None -> failwith (path ^ ": first line does not name a workload, seed and run length")
      in
      let metrics =
        match Json.member "metrics" (Json.parse (List.nth all (List.length all - 1))) with
        | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun f -> (k, f)) (Option.bind (Json.member "value" v) Json.to_num))
              kvs
        | _ -> failwith (path ^ ": last line is not a result")
      in
      { workload; seed; seconds; metrics }

let workloads results = List.sort_uniq compare (List.map (fun r -> r.workload) results)
let values results ~workload metric =
  List.filter_map (fun r -> if r.workload = workload then List.assoc_opt metric r.metrics else None) results

let read_bounds path =
  let bench = Json.parse (Json.read_file path) in
  List.filter_map
    (fun x ->
      match
        ( Option.bind (Json.member "name" x) Json.to_str,
          Option.bind (Json.member "better" x) Json.to_str,
          Option.bind (Json.member "bound" x) Json.to_num )
      with
      | Some name, Some better, Some bound -> Some (name, { better_high = better = "higher"; bound })
      | _ -> None)
    (Json.to_list (Option.value (Json.member "end_to_end" bench) ~default:Json.Null))

let verdict b ~parent ~change =
  let p1, pm, p3 = quartiles parent in
  let cm = median change in
  let gain x y = if b.better_high then x -. y else y -. x in
  (* relative improvement of the change over the parent *)
  let rel = gain cm pm /. Float.abs pm in
  let rec zip ps cs = match (ps, cs) with p :: ps, c :: cs -> (p, c) :: zip ps cs | _ -> [] in
  let pairs = zip parent change in
  let wins = List.length (List.filter (fun (p, c) -> gain c p > 0.0) pairs) in
  let win_frac = float_of_int wins /. float_of_int (max 1 (List.length pairs)) in
  let spread = (p3 -. p1) /. Float.abs pm in
  let dominates =
    List.for_all (fun c -> List.for_all (fun p -> gain c p > 0.0) parent) change
  in
  let better = win_frac >= 0.9 && Float.abs (cm -. pm) > p3 -. p1 in
  let v =
    if dominates && better then "better"
    else if spread > b.bound then "unresolved"
    else if rel < -.b.bound then "worse"
    else if better then "better"
    else "same"
  in
  (v, rel, win_frac, spread)

let spread xs =
  let q1, m, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs m

let main argv =
  let rec split key acc = function
    | ("--bounds" | "--parent" | "--change") as k :: rest -> split k acc rest
    | x :: rest -> split key ((key, x) :: acc) rest
    | [] -> List.rev acc
  in
  let args = split "" [] argv in
  let files k = List.filter_map (fun (k', v) -> if k = k' then Some v else None) args in
  match (files "--bounds", files "--parent", files "--change") with
  | [ bounds_path ], (_ :: _ as parent_files), (_ :: _ as change_files) ->
      let bounds = read_bounds bounds_path in
      let parent = List.map read_result parent_files and change = List.map read_result change_files in
      let any_worse = ref false in
      Printf.printf "%-16s %-16s %28s %28s %8s %6s %6s %7s  %s\n" "workload" "metric"
        "parent median [q1, q3]" "change median [q1, q3]" "change" "wins" "bound" "spread" "verdict";
      List.iter
        (fun workload ->
          List.iter
            (fun (metric, b) ->
              let pv = values parent ~workload metric and cv = values change ~workload metric in
              if pv <> [] && cv <> [] then begin
                let v, rel, wins, spread = verdict b ~parent:pv ~change:cv in
                if v = "worse" then any_worse := true;
                let q xs =
                  let a, m, c = quartiles xs in
                  Printf.sprintf "%.5g [%.5g, %.5g]" m a c
                in
                Printf.printf "%-16s %-16s %28s %28s %+7.1f%% %6.2f %6.2f %6.1f%%  %s\n" workload
                  metric (q pv) (q cv) (100.0 *. rel) wins b.bound (100.0 *. spread) v
              end)
            bounds)
        (workloads parent);
      if !any_worse then 1 else 0
  | _ ->
      prerr_endline
        "usage: fdb_bench compare --bounds BENCHMARK.json --parent FILE... --change FILE...";
      2

let summarize files =
  let results = List.map read_result files in
  let per_workload f =
    Json.Obj
      (List.map
         (fun w -> (w, f w (List.filter (fun r -> r.workload = w) results)))
         (workloads results))
  in
  let metric_names rs = List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.metrics) rs) in
  let seed_1 workload rs =
    let ones = List.filter (fun r -> r.seed = 1L) rs in
    Json.Obj
      (List.filter_map
         (fun metric ->
           match values ones ~workload metric with v :: _ -> Some (metric, Json.Num v) | [] -> None)
         (metric_names ones))
  in
  let across workload rs =
    Json.Obj
      (List.filter_map
         (fun metric ->
           let xs = values rs ~workload metric in
           let q1, m, q3 = quartiles xs in
           if List.length xs < 2 then None
           else
             Some
               ( metric,
                 Json.Obj
                   [
                     ("median", Json.Num m);
                     ("q1", Json.Num q1);
                     ("q3", Json.Num q3);
                     ("spread", Json.Num (spread xs));
                     ("n", Json.Num (float_of_int (List.length xs)));
                   ] ))
         (metric_names rs))
  in
  let distinct f = Json.Arr (List.sort_uniq compare (List.map (fun r -> Json.Num (f r)) results)) in
  print_endline
    (Json.pretty
       (Json.Obj
          [
            ("seconds", distinct (fun r -> r.seconds));
            ("seeds", distinct (fun r -> Int64.to_float r.seed));
            ("seed_1", per_workload seed_1);
            ("across_seeds", per_workload across);
          ]));
  0
