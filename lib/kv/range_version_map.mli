(** The Resolver's [lastCommit] history (paper §2.4.2, Algorithm 1): a map
    from key ranges to the commit version that last wrote them, stored as a
    version-augmented skiplist of range-start keys.

    An entry at key [k] with version [v] means: the range from [k] to the
    next entry's key was last modified at commit version [v]. The map always
    covers the whole keyspace (a root entry at [""]). Versions are held as
    native ints, so they must stay below [2^62]; {!note_write} and
    {!max_version} allocate nothing but new entries and the returned
    version. *)

type t

val create : rng:Fdb_util.Det_rng.t -> unit -> t
(** Everything initially at version 0. *)

val note_write : t -> from:string -> until:string -> int64 -> unit
(** Record that [\[from, until)] was modified at the given commit version
    (expected monotonically non-decreasing across calls). One descent to
    [from], one level-0 walk to [until], one bottom-up refresh. *)

val max_version : t -> from:string -> until:string -> int64
(** Largest commit version recorded for any key in [\[from, until)] —
    the left-hand side of Algorithm 1's conflict test. *)

val expire : t -> before:int64 -> unit
(** Coalesce history older than [before] (the MVCC-window floor): adjacent
    ranges whose versions are all below [before] are merged, and
    {!oldest} rises to [before]. Transactions with a read version below
    {!oldest} can no longer be checked and must be aborted as too old. *)

val oldest : t -> int64
(** Lower bound below which history has been coalesced away. *)

val entry_count : t -> int
(** Number of range entries (memory accounting / Ratekeeper input). *)

val work : t -> int
(** Cumulative skiplist links traversed by all operations so far — the
    conflict-check cost meter the resolver publishes per batch, and the
    measure benches and tests use to check the O(log n) bound. *)

val check_invariants : t -> bool
(** Structural self-check (keys strictly sorted at every level, entry count)
    plus every link annotation recomputed from level 0 (property tests). *)
