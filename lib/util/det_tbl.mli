(** Deterministic hash table: a [Hashtbl] whose iteration order is defined.

    Raw [Hashtbl.iter]/[fold]/[to_seq] enumerate buckets in an order that
    depends on the table's insertion and resize history — two logically
    identical tables built along different paths iterate differently, which
    silently breaks seed reproducibility (determinism rule R2, see
    DESIGN.md "The determinism contract"). [Det_tbl] keeps point operations
    O(1) on a backing [Hashtbl] but every enumeration is key-sorted
    (polymorphic [compare]), so iteration order is a pure function of the
    table's *contents*, never of its history.

    Bindings are unique per key ([add] is [replace]); iteration snapshots
    the table first, so removing the binding under the current key during
    [iter]/[fold] is safe. *)

type ('k, 'v) t

val create : ?size:int -> unit -> ('k, 'v) t
(** [size] is the initial bucket-array hint (default 16). *)

val length : ('k, 'v) t -> int
val mem : ('k, 'v) t -> 'k -> bool
val find_opt : ('k, 'v) t -> 'k -> 'v option

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite. Unlike [Hashtbl.add], a key never has more than
    one binding — the sorted enumeration order stays well-defined. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Alias of {!replace} (kept for drop-in migration from [Hashtbl]). *)

val remove : ('k, 'v) t -> 'k -> unit
val reset : ('k, 'v) t -> unit

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t k make] returns the existing binding of [k], or inserts
    and returns [make ()]. *)

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
(** Key-sorted iteration over a snapshot of the bindings. *)

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** Key-sorted (ascending) fold over a snapshot of the bindings. *)

val to_sorted_list : ('k, 'v) t -> ('k * 'v) list
(** All bindings in ascending key order. *)

val keys : ('k, 'v) t -> 'k list
(** All keys in ascending order. *)
