(** A StorageServer's data (paper §2.4.4: "an unversioned SQLite B-tree and
    in-memory multi-versioned redo log data"), as one structure in two
    levels.

    The upper level is the in-memory window: the last ~5 seconds of
    mutations, indexed two ways. A chronological log feeds the image in
    order and is cut back on rollback; a per-key history plus a
    range-tombstone list serves reads at a version. The lower level is the
    {!Fdb_kv.Persistent_store} image, written as of {!durable}. Reads
    consult the window first and fall through to the image.

    The store also owns the snapshot floors of ranges fetched as a move
    destination. Under a floor [(lo, hi, since)], the image holds
    [\[lo, hi)] as of [since]: the window's events of that range at or below
    [since] are invisible, and dropped when popped. The image itself records
    its version and the floors it was written under, each rewritten in the
    same batch as the data it describes, so {!recover} restores exactly the
    state that was made durable. *)

type t

val recover : disk:Fdb_sim.Disk.t -> prefix:string -> t Fdb_sim.Future.t
(** Open (creating if absent) the store persisted under [prefix] on [disk]:
    the image, its version and its floors, under an empty window. *)

val durable : t -> Types.version
(** The version the image holds: everything at or below it has left the
    window. *)

val apply : t -> Types.version -> Fdb_kv.Mutation.t -> Fdb_kv.Mutation.t
(** Record a mutation at a commit version and return it concrete: an
    [Atomic] op is materialized against the key's value at that very
    version, so atomic ops within one version stack. Versions must be
    non-decreasing ([Invalid_argument] otherwise). *)

val get : t -> Types.version -> string -> string option
(** The value of a key at a version: the newest window event at or below
    it (per key or a covering range clear, above the key's floor), else the
    image. *)

val read_range :
  t ->
  Types.version ->
  from:string ->
  until:string ->
  reverse:bool ->
  limit:int ->
  byte_limit:int ->
  (string * string) list * bool
(** The rows of [\[from, until)] visible at a version, in scan order
    (descending when [reverse]), up to [limit] rows or until [byte_limit]
    bytes are reached (at least one row when any is visible). The flag is
    [true] only when a budget stopped the scan with a candidate key left. *)

val image_range : t -> from:string -> until:string -> (string * string) Seq.t
(** The image's rows of [\[from, until)] in key order, lazily: shard sizes
    and split points. *)

val last_change : t -> string -> Types.version option
(** Newest version (above the key's floor) at which any window event, per
    key or a covering range clear, touched the key; [None] if the window
    holds none. A watcher at [w] with [last_change > w] already missed its
    change. *)

val floor_over : t -> from:string -> until:string -> Types.version
(** The highest floor over any key of [\[from, until)] ([Int64.min_int] if
    none): the store cannot reconstruct the range's state below it. *)

val install :
  t ->
  lo:string ->
  hi:string ->
  since:Types.version ->
  (string * string) list ->
  unit Fdb_sim.Future.t
(** The image now holds [\[lo, hi)] as [rows], the committed state as of
    [since]: installs the floor (replacing one of the same range) and writes
    the rows with the floor record in one batch and one commit. [since] is
    at or above {!durable} and every floor over the range. *)

val make_durable : t -> Types.version -> unit Fdb_sim.Future.t
(** Move the window's events at or below [target] (above {!durable}) into
    the image: pop them, drop the parts a floor hides, retire the floors at
    or below [target] (rewriting the floor record only if one retired),
    write the version marker and commit. *)

val rollback : t -> after:Types.version -> int
(** Discard all window events above [after] (recovery §2.4.4); returns how
    many were dropped. *)

val oldest : t -> Types.version
(** Lowest version the window can serve: reads below it are too old. *)

val event_count : t -> int
(** Events currently in the window (Ratekeeper input). *)
