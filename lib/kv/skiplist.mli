(** Version-augmented probabilistic skiplist over string keys (Pugh [56], as
    the paper's Resolvers use for the [lastCommit] history, §2.4.2).

    Expected O(log n) search/insert/delete. Every tower link additionally
    carries the max and min {i measure} — an int64 the caller extracts from
    the value, e.g. a commit version — of the sublist it skips, maintained
    on every mutation. The annotations make {!max_in_range} (the resolver's
    range conflict check) and {!coalesce_below} (MVCC-window expiry) sublinear
    instead of O(k) scans. The tower heights come from a caller-supplied
    deterministic RNG so simulation runs stay reproducible. *)

type 'a t

val create : ?measure:('a -> int64) -> rng:Fdb_util.Det_rng.t -> unit -> 'a t
(** An empty skiplist with towers up to 24 levels. [measure] extracts the
    int64 the link annotations aggregate (default: constant [0L], for uses
    that never call the augmented queries). *)

val length : 'a t -> int

val work : 'a t -> int
(** Cumulative number of links traversed by every operation so far — the
    data structure's own cost meter (published per batch by the resolver as
    the [batch_check_cost] gauge, and used by benches/tests to assert the
    O(log n) bound). *)

val find : 'a t -> string -> 'a option
(** Exact-key lookup. *)

val find_less_equal : 'a t -> string -> (string * 'a) option
(** Greatest entry with key <= the probe (the covering range start, for
    range-version queries). *)

val insert : 'a t -> string -> 'a -> unit
(** Insert or replace; link annotations along the search path are refreshed
    in the same walk. *)

val remove : 'a t -> string -> bool
(** Delete; returns whether the key was present. *)

val iter_range : 'a t -> ?from:string -> ?until:string -> (string -> 'a -> unit) -> unit
(** Visit entries with [from <= key < until] in key order ([from] defaults
    to the beginning, [until] to the end). *)

val remove_range : 'a t -> from:string -> until:string -> int
(** Delete every entry with [from <= key < until]; returns the count.
    Bulk splice: O(log n + removed), not one search per removed key. *)

val max_in_range : 'a t -> from:string -> until:string -> int64
(** Largest measure among entries with [from <= key < until], in expected
    O(log n): a greedy tallest-link descent summing skipped-link maxima.
    [Int64.min_int] when the range holds no entry. *)

val coalesce_below : 'a t -> int64 -> int
(** [coalesce_below t floor] removes every entry whose measure is below
    [floor] and whose predecessor's measure is also below [floor] — i.e.
    each maximal run of consecutive below-floor entries keeps only its first
    entry (the first entry of the list is never removed). Returns the number
    removed. Incremental: tower links whose sublist is entirely at-or-above
    the floor ([link_min >= floor]) are skipped in one hop, and each all-old
    run is spliced out in one bulk unlink — cost is proportional to the
    expired runs touched, never the whole list, and nothing is materialized. *)

val to_list : 'a t -> (string * 'a) list
(** All entries in key order (tests/debugging). *)

val check_invariants : 'a t -> bool
(** Structural self-check: keys strictly sorted at every level, towers
    consistent, and every link's (max, min) annotation equal to a direct
    level-0 recomputation of the sublist it skips. For property tests. *)
