(** Tuple-prefixed keyspaces — the layer ecosystem's unit of namespacing.

    A subspace is a raw byte prefix, usually the pack of a tuple; keys are
    formed by packing tuples inside it. Because the tuple encoding is
    order-preserving and prefix-compatible, tuple order inside a subspace
    equals byte order of the packed keys, so range scans over a subspace
    enumerate its tuples in order. *)

type t

val create : Fdb_core.Tuple.t -> t
(** Subspace rooted at the pack of the tuple. *)

val of_raw : string -> t
(** Subspace at an arbitrary raw prefix (e.g. a {!Directory} allocation). *)

val sub : t -> Fdb_core.Tuple.t -> t
(** Nested subspace: the tuple packed inside the parent. *)

val prefix : t -> string

val pack : t -> Fdb_core.Tuple.t -> string
(** A concrete key: the tuple packed inside the subspace. *)

val unpack : t -> string -> Fdb_core.Tuple.t
(** Inverse of {!pack}. Raises [Invalid_argument] if the key is outside
    the subspace or the remainder is not a valid tuple encoding. *)

val contains : t -> string -> bool

val range : t -> string * string
(** [\[prefix 0x00, prefix 0xff)]: every packed tuple inside the subspace
    (the standard FDB subspace range). *)

val full_range : t -> string * string (* fdb-lint: allow R7 -- subspace layer API *)
(** Every key with the raw prefix, including the bare prefix key itself —
    what {!Directory.remove} clears. *)

val query :
  ?limit:int ->
  ?mode:Fdb_core.Range_query.mode ->
  ?reverse:bool ->
  ?snapshot:bool ->
  ?continuation:string ->
  t ->
  unit ->
  Fdb_core.Range_query.t
(** A {!Fdb_core.Range_query.t} over {!range} — feed to [Client.range] /
    [Client.range_all]. *)
