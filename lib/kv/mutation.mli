(** The common mutation currency understood by every storage layer.

    Atomic read-modify-write operations (paper §2.6) are carried in this
    form through the commit pipeline and materialized into [Set]s at the
    StorageServer, which is the first place the current value is known. *)

type atomic_kind =
  | Add  (** little-endian integer addition *)
  | Bit_and
  | Bit_or
  | Bit_xor
  | Max  (** little-endian unsigned max *)
  | Min
  | Byte_max  (** lexicographic max *)
  | Byte_min
  | Append_if_fits
  | Compare_and_clear  (** clear the key if its value equals the operand *)

type t =
  | Set of string * string
  | Clear of string
  | Clear_range of string * string  (** [\[from, until)] *)
  | Atomic of atomic_kind * string * string  (** kind, key, operand *)

val atomic_result : atomic_kind -> old_value:string option -> string -> string option
(** [atomic_result kind ~old_value operand] — the value the key holds after
    the operation ([None] = key cleared). Missing keys behave as the
    all-zero / empty value, matching FDB semantics. *)

val byte_size : t -> int
(** Approximate wire/storage footprint (key + value lengths), used for
    throughput accounting and transaction size limits. *)

val key_range : t -> string * string
(** The smallest key range [\[from, until)] this mutation touches. *)
