(* The splitmix64 state lives in 8 bytes rather than a [mutable int64]
   field, so a draw reads and writes it unboxed: with [mix64] and
   [next_int64] inlined, [int] and [bool] allocate nothing, and [float]
   only the float it returns. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next_int64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix64 state

let split t = create (next_int64 t)

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value always fits in a non-negative native int. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let float t bound =
  (* 53 uniform mantissa bits scaled into [0, bound). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let chance t p = if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

let exponential t mean =
  let u = float t 1.0 in
  -.mean *. log (1.0 -. u)

let pick_list t l =
  match l with
  | [] -> invalid_arg "Det_rng.pick_list: empty"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let alphanum_chars = "abcdefghijklmnopqrstuvwxyz0123456789"

let alphanum t n =
  String.init n (fun _ -> alphanum_chars.[int t (String.length alphanum_chars)])
