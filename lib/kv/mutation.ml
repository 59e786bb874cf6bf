type atomic_kind =
  | Add
  | Bit_and
  | Bit_or
  | Bit_xor
  | Max
  | Min
  | Byte_max
  | Byte_min
  | Append_if_fits
  | Compare_and_clear

type t =
  | Set of string * string
  | Clear of string
  | Clear_range of string * string
  | Atomic of atomic_kind * string * string

(* Little-endian arithmetic over byte strings, FDB-style: operands are
   padded with zero bytes to the longer length; results have the operand's
   length for Add (carry beyond is dropped). *)

let get_byte s i = if i < String.length s then Char.code s.[i] else 0

let le_add a b =
  let n = String.length b in
  let out = Bytes.create n in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = get_byte a i + get_byte b i + !carry in
    Bytes.set out i (Char.chr (s land 0xff));
    carry := s lsr 8
  done;
  Bytes.to_string out

let le_bitop f a b =
  let n = max (String.length a) (String.length b) in
  String.init n (fun i -> Char.chr (f (get_byte a i) (get_byte b i) land 0xff))

let le_unsigned_compare a b =
  (* compare as little-endian unsigned integers of equal (padded) width *)
  let n = max (String.length a) (String.length b) in
  let rec go i = if i < 0 then 0 else
      let ca = get_byte a i and cb = get_byte b i in
      if ca <> cb then compare ca cb else go (i - 1)
  in
  go (n - 1)

let value_size_limit = 100_000

let atomic_result kind ~old_value operand =
  let old_v = Option.value old_value ~default:"" in
  match kind with
  | Add -> Some (le_add old_v operand)
  | Bit_and ->
      (* Missing key behaves as empty => all zeros => result all zeros of
         operand length, per FDB's AND semantics on missing keys. *)
      Some (le_bitop ( land ) old_v operand)
  | Bit_or -> Some (le_bitop ( lor ) old_v operand)
  | Bit_xor -> Some (le_bitop ( lxor ) old_v operand)
  | Max -> Some (if le_unsigned_compare old_v operand >= 0 then old_v else operand)
  | Min ->
      if old_value = None then Some operand
      else Some (if le_unsigned_compare old_v operand <= 0 then old_v else operand)
  | Byte_max -> Some (if old_v >= operand then old_v else operand)
  | Byte_min ->
      if old_value = None then Some operand
      else Some (if old_v <= operand then old_v else operand)
  | Append_if_fits ->
      if String.length old_v + String.length operand <= value_size_limit then
        Some (old_v ^ operand)
      else Some old_v
  | Compare_and_clear -> if old_value = Some operand then None else old_value

let byte_size = function
  | Set (k, v) -> String.length k + String.length v
  | Clear k -> String.length k
  | Clear_range (a, b) -> String.length a + String.length b
  | Atomic (_, k, v) -> String.length k + String.length v

let next_key k = k ^ "\x00"

let key_range = function
  | Set (k, _) | Clear k | Atomic (_, k, _) -> (k, next_key k)
  | Clear_range (a, b) -> (a, b)
