type version = int64
type tag = int
type epoch = int

let versions_per_second = 1e6
let mvcc_window = 5_000_000L
let time_version () = Int64.of_float (Fdb_sim.Engine.now () *. versions_per_second)
let key_space_end = "\xff"
let system_key_space_end = "\xff\xff"
let next_key k = k ^ "\x00"

let strinc prefix =
  let n = String.length prefix in
  let rec last_incrementable i =
    if i < 0 then invalid_arg "Types.strinc: key has no incrementable byte"
    else if prefix.[i] <> '\xff' then i
    else last_incrementable (i - 1)
  in
  let i = last_incrementable (n - 1) in
  String.sub prefix 0 i ^ String.make 1 (Char.chr (Char.code prefix.[i] + 1))

let range_of_prefix prefix = (prefix, strinc prefix)

let key_size_limit = 10_000
let value_size_limit = 100_000
let transaction_size_limit = 10_000_000

let version_to_bytes v =
  String.init 8 (fun i -> Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))) land 0xff))

let version_of_bytes s =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[i]))
  done;
  !v
