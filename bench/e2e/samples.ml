(* Raw samples with exact percentiles: every value is kept, and a
   percentile is read off the sorted samples by nearest rank, so two runs
   that produce the same samples report the same bits. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let grown = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let mean t = if t.len = 0 then 0.0 else sum t /. float_of_int t.len

(* Nearest rank: the smallest sample with at least [p]% of the samples at
   or below it; 0 when empty. *)
let percentile t p =
  if t.len = 0 then 0.0
  else begin
    let sorted = Array.sub t.data 0 t.len in
    Array.sort Float.compare sorted;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.len)) in
    sorted.(max 0 (min (t.len - 1) (rank - 1)))
  end

let median_of_list xs =
  let t = create () in
  List.iter (add t) xs;
  percentile t 50.0
