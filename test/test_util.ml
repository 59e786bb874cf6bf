open Fdb_util

let test_rng_deterministic () =
  let a = Det_rng.create 42L and b = Det_rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Det_rng.next_int64 a) (Det_rng.next_int64 b)
  done

let test_rng_distinct_seeds () =
  let a = Det_rng.create 1L and b = Det_rng.create 2L in
  let va = List.init 8 (fun _ -> Det_rng.next_int64 a) in
  let vb = List.init 8 (fun _ -> Det_rng.next_int64 b) in
  Alcotest.(check bool) "different streams" true (va <> vb)

let test_rng_split_independent () =
  let parent = Det_rng.create 7L in
  let child = Det_rng.split parent in
  (* Drawing more from the child must not perturb the parent's stream
     relative to a parent that split and then drew nothing from the child. *)
  let parent' = Det_rng.create 7L in
  let _child' = Det_rng.split parent' in
  for _ = 1 to 50 do
    ignore (Det_rng.next_int64 child)
  done;
  Alcotest.(check int64) "parent unaffected by child draws"
    (Det_rng.next_int64 parent') (Det_rng.next_int64 parent)

let test_rng_bounds () =
  let r = Det_rng.create 3L in
  for _ = 1 to 1000 do
    let v = Det_rng.int r 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = Det_rng.float r 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_chance_extremes () =
  let r = Det_rng.create 5L in
  Alcotest.(check bool) "p=0 never" false (Det_rng.chance r 0.0);
  Alcotest.(check bool) "p=1 always" true (Det_rng.chance r 1.0)

let test_rng_shuffle_permutation () =
  let r = Det_rng.create 11L in
  let arr = Array.init 20 Fun.id in
  Det_rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i /. 1000.0)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let p50 = Histogram.percentile h 50.0 in
  Alcotest.(check bool) "p50 near 0.5" true (p50 > 0.45 && p50 < 0.55);
  let p999 = Histogram.percentile h 99.9 in
  Alcotest.(check bool) "p99.9 near 1.0" true (p999 > 0.95 && p999 <= 1.05);
  let m = Histogram.mean h in
  Alcotest.(check bool) "mean near 0.5" true (m > 0.49 && m < 0.51)

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.0)) "mean empty" 0.0 (Histogram.mean h);
  Alcotest.(check (float 0.0)) "p50 empty" 0.0 (Histogram.percentile h 50.0);
  Alcotest.(check (float 0.0)) "max empty" 0.0 (Histogram.max_value h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 1.0;
  Histogram.add b 3.0;
  Histogram.merge_into ~dst:a b;
  Alcotest.(check int) "merged count" 2 (Histogram.count a);
  Alcotest.(check (float 1e-9)) "merged total" 4.0 (Histogram.total a);
  Alcotest.(check bool) "merged max" true (Histogram.max_value a >= 3.0)

let test_histogram_cdf_monotone () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0.001; 0.01; 0.1; 1.0; 1.0; 10.0 ];
  let pts = Histogram.cdf_points h in
  let rec check prev = function
    | [] -> ()
    | (x, f) :: rest ->
        Alcotest.(check bool) "x increasing" true (x > fst prev);
        Alcotest.(check bool) "f non-decreasing" true (f >= snd prev);
        check (x, f) rest
  in
  check (0.0, 0.0) pts;
  (match List.rev pts with
  | (_, last) :: _ -> Alcotest.(check (float 1e-9)) "cdf ends at 1" 1.0 last
  | [] -> Alcotest.fail "empty cdf")

let test_stats_basic () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p20" 1.0 (Stats.percentile xs 20.0);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.maximum xs)

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"histogram percentile within [min,max]" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let xs = List.map (fun x -> Float.abs x +. 1e-6) xs in
      let h = Fdb_util.Histogram.create () in
      List.iter (Fdb_util.Histogram.add h) xs;
      let v = Fdb_util.Histogram.percentile h p in
      v >= Fdb_util.Histogram.min_value h *. 0.97
      && v <= Fdb_util.Histogram.max_value h *. 1.03 +. 1e-9)

(* --- qcheck properties over the histogram (metrics-plane substrate) --- *)

let hist_of_list xs =
  let h = Histogram.create () in
  List.iter (Histogram.add h) xs;
  h

let hist_merge a b =
  let d = Histogram.create () in
  Histogram.merge_into ~dst:d a;
  Histogram.merge_into ~dst:d b;
  d

let pos_samples = QCheck.(list_of_size Gen.(0 -- 40) (map Float.abs (float_bound_exclusive 1000.0)))

let qcheck_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative" ~count:200
    QCheck.(triple pos_samples pos_samples pos_samples)
    (fun (xs, ys, zs) ->
      let a () = hist_of_list xs and b () = hist_of_list ys and c () = hist_of_list zs in
      let l = hist_merge (hist_merge (a ()) (b ())) (c ()) in
      let r = hist_merge (a ()) (hist_merge (b ()) (c ())) in
      (* Bucket contents, counts, and extrema are integer/idempotent data and
         must agree exactly; only [total] is a float sum, so it gets an eps. *)
      Histogram.count l = Histogram.count r
      && Histogram.cdf_points l = Histogram.cdf_points r
      && Histogram.min_value l = Histogram.min_value r
      && Histogram.max_value l = Histogram.max_value r
      && Float.abs (Histogram.total l -. Histogram.total r)
         <= 1e-9 *. (1.0 +. Float.abs (Histogram.total l)))

let qcheck_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentile is monotone in p" ~count:200
    QCheck.(triple pos_samples (float_bound_inclusive 100.0) (float_bound_inclusive 100.0))
    (fun (xs, p, q) ->
      let h = hist_of_list xs in
      let p, q = if p <= q then (p, q) else (q, p) in
      Histogram.percentile h p <= Histogram.percentile h q)

let qcheck_clamp_non_positive =
  QCheck.Test.make ~name:"histogram clamps non-positive samples" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (float_range (-10.0) 10.0))
    (fun xs ->
      let h = hist_of_list xs in
      (* Every sample is recorded (none dropped), and the clamp keeps all
         statistics strictly positive even for zero/negative inputs. *)
      Histogram.count h = List.length xs
      && Histogram.min_value h >= 1e-9 *. 0.999
      && Histogram.percentile h 0.0 > 0.0
      && Histogram.total h > 0.0)

(* --- qcheck properties over Det_tbl (the R2 substrate) --- *)

(* Keep each key's first binding, in order. *)
let dedup_keys kvs =
  let module Seen = Set.Make (String) in
  let _, kept =
    List.fold_left
      (fun (seen, acc) (k, v) ->
        if Seen.mem k seen then (seen, acc) else (Seen.add k seen, (k, v) :: acc))
      (Seen.empty, []) kvs
  in
  List.rev kept

let det_tbl_of kvs =
  let t = Det_tbl.create () in
  List.iter (fun (k, v) -> Det_tbl.replace t k v) kvs;
  t

let qcheck_det_tbl_order_invariant =
  QCheck.Test.make
    ~name:"det_tbl enumeration is invariant under insertion order" ~count:300
    QCheck.(pair small_int (list (pair small_string small_int)))
    (fun (salt, kvs) ->
      let kvs = dedup_keys kvs in
      (* Three insertion orders: as generated, reversed, and shuffled by a
         seeded rng — the sorted snapshot must be identical. *)
      let shuffled =
        let arr = Array.of_list kvs in
        Det_rng.shuffle (Det_rng.create (Int64.of_int salt)) arr;
        Array.to_list arr
      in
      let reference = Det_tbl.to_sorted_list (det_tbl_of kvs) in
      reference = Det_tbl.to_sorted_list (det_tbl_of (List.rev kvs))
      && reference = Det_tbl.to_sorted_list (det_tbl_of shuffled)
      && List.sort compare (List.map fst reference) = List.map fst reference)

let qcheck_det_tbl_iter_matches_sorted =
  QCheck.Test.make ~name:"det_tbl iter/fold visit the sorted snapshot" ~count:300
    QCheck.(list (pair small_string small_int))
    (fun kvs ->
      let t = det_tbl_of (dedup_keys kvs) in
      let via_iter = ref [] in
      Det_tbl.iter (fun k v -> via_iter := (k, v) :: !via_iter) t;
      let via_fold = Det_tbl.fold (fun k v acc -> (k, v) :: acc) t [] in
      List.rev !via_iter = Det_tbl.to_sorted_list t
      && List.rev via_fold = Det_tbl.to_sorted_list t)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng distinct seeds" `Quick test_rng_distinct_seeds;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng chance extremes" `Quick test_rng_chance_extremes;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram cdf monotone" `Quick test_histogram_cdf_monotone;
    Alcotest.test_case "stats basic" `Quick test_stats_basic;
    Property.to_alcotest qcheck_percentile_bounds;
    Property.to_alcotest qcheck_merge_associative;
    Property.to_alcotest qcheck_percentile_monotone;
    Property.to_alcotest qcheck_clamp_non_positive;
    Property.to_alcotest qcheck_det_tbl_order_invariant;
    Property.to_alcotest qcheck_det_tbl_iter_matches_sorted;
  ]
