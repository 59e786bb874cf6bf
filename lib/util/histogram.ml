(* Geometric buckets: bucket i covers (base^i, base^(i+1)] relative to
   [smallest]. With base = 1.02, relative error is ~2%, and ~2300 buckets
   cover 1e-9 .. 1e11, so we just allocate lazily in a Det_tbl keyed by
   bucket index (key-sorted iteration makes merge/percentile order-stable
   without a post-sort). *)

let base = 1.02
let log_base = log base
let smallest = 1e-9

type t = {
  buckets : (int, int ref) Det_tbl.t;
  mutable count : int;
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { buckets = Det_tbl.create ~size:64 (); count = 0; total = 0.0; min_v = infinity; max_v = 0.0 }

let index_of v =
  let v = if v <= smallest then smallest else v in
  int_of_float (Float.round (log (v /. smallest) /. log_base))

let upper_of i = smallest *. exp (float_of_int i *. log_base)

(* Non-positive samples are clamped to [smallest] before recording, so every
   statistic (count, total, min, percentiles) agrees with the bucket data. *)
let add t v =
  let v = if v < smallest then smallest else v in
  let i = index_of v in
  (match Det_tbl.find_opt t.buckets i with
  | Some r -> incr r
  | None -> Det_tbl.add t.buckets i (ref 1));
  t.count <- t.count + 1;
  t.total <- t.total +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let merge_into ~dst src =
  Det_tbl.iter
    (fun i r ->
      match Det_tbl.find_opt dst.buckets i with
      | Some r' -> r' := !r' + !r
      | None -> Det_tbl.add dst.buckets i (ref !r))
    src.buckets;
  dst.count <- dst.count + src.count;
  dst.total <- dst.total +. src.total;
  if src.min_v < dst.min_v then dst.min_v <- src.min_v;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v

let count t = t.count
let total t = t.total
let mean t = if t.count = 0 then 0.0 else t.total /. float_of_int t.count
let max_value t = if t.count = 0 then 0.0 else t.max_v
let min_value t = if t.count = 0 then 0.0 else t.min_v

(* Det_tbl enumerates in ascending key order already. *)
let sorted_buckets t = List.map (fun (i, r) -> (i, !r)) (Det_tbl.to_sorted_list t.buckets)

let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let target = p /. 100.0 *. float_of_int t.count in
    let rec walk acc = function
      | [] -> t.max_v
      | (i, n) :: rest ->
          let acc = acc + n in
          if float_of_int acc >= target then Float.min (upper_of i) t.max_v
          else walk acc rest
    in
    walk 0 (sorted_buckets t)
  end

let cdf_points t =
  let n = float_of_int t.count in
  if t.count = 0 then []
  else begin
    let acc = ref 0 in
    List.map
      (fun (i, c) ->
        acc := !acc + c;
        (upper_of i, float_of_int !acc /. n))
      (sorted_buckets t)
  end
