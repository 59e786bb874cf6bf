(** Key-range sharding and replica-team placement (paper §2.5), with runtime
    reconfiguration (paper §2.3.1).

    The key space is split into contiguous shards; each shard is served by a
    {e team} of [storage_replication] StorageServers whose members are
    placed in distinct fault domains where possible (the hierarchical
    placement of §2.5, degraded gracefully for tiny clusters).

    At runtime the DataDistributor splits hot shards, merges cold adjacent
    ones, and moves shards between teams with a fetch-then-cutover protocol.
    A shard mid-move keeps two views: the {e read} view ({!shards_of_storage},
    {!team_for_key}, {!shards_for_range}) still names the current team, while
    the {e apply/tag} view ({!tags_for_mutation}, {!apply_ranges_of_storage})
    already includes the destination — so every mutation committed after
    {!begin_move} is dual-tagged and streams to the newcomers' tLog tags
    while they fetch the snapshot. {!commit_move} flips the read view in a
    single synchronous mutation.

    Every runtime change bumps {!generation} (clients holding an older
    generation get [Wrong_shard] and re-resolve), folds into
    {!history_checksum} (the swarm's shard-schedule determinism oracle), and
    emits a [shard_map_update] trace event. *)

type t

val build : Config.t -> t
(** Deterministic initial placement for a deployment. *)

val boundary : int -> int -> string
(** [boundary n i]: the start of the [i]th of [n] even two-byte-prefix
    splits of the key space ([""] at 0; the system key space end at [n]).
    The initial shards and the resolvers' key ranges both use it. *)

val shard_count : t -> int

val generation : t -> int
(** Bumped on every runtime change; the version clients cache. *)

val history_checksum : t -> int64
(** FNV-1a fold of every runtime change since {!build}. Two runs of the same
    seed must end with equal checksums — the shard-move-schedule oracle. *)

(** {1 Lookup (read view)} *)

val team_for_key : t -> string -> int list
(** The team currently {e serving} the key (excludes move destinations). *)

val shard_range_for_key : t -> string -> string * string
(** [(lo, hi)] of the shard containing the key. *)

val shards_for_range :
  t -> from:string -> until:string -> (string * string * int list) list
(** Serving fragments tiling [\[from, until)]: [(frag_lo, frag_hi, team)]. *)

val serves_key : t -> int -> string -> bool
(** [serves_key t ss key]: server [ss] serves reads for [key] (read view).
    O(log shards). *)

val serves_range : t -> int -> from:string -> until:string -> bool
(** A single shard whose read team holds [ss] covers the non-empty
    [\[from, until)]. O(log shards). *)

val applies_key : t -> int -> string -> bool
(** [ss] applies mutations to [key]: it is in the serving or the incoming
    team of the key's shard (apply view). O(log shards). *)

val shards_of_storage : t -> int -> (string * string) list
(** Ranges server [ss] currently {e serves reads for} (its read view). *)

val apply_ranges_of_storage : t -> int -> (string * string) list
(** Ranges server [ss] must {e apply mutations for}: everything it serves
    plus shards moving {e to} it (superset of {!shards_of_storage}). *)

val tags_for_mutation : t -> Fdb_kv.Mutation.t -> int list
(** Storage tags a mutation must reach: the serving team(s) of every shard
    it overlaps, plus the destination team of any such shard mid-move. *)

val tag_teams : t -> int list array
(** Snapshot of per-shard serving teams, index-aligned with {!ranges}. *)

val ranges : t -> (string * string) array
(** Snapshot of shard boundaries, ascending. *)

val pending_moves : t -> (string * string * int list * float) list
(** In-flight moves: [(lo, hi, dst_team, started_at)]. *)

(** {1 Runtime reconfiguration}

    All mutators bump {!generation} and emit [shard_map_update]. *)

val set_team : t -> shard:int -> team:int list -> unit
(** Reassign shard [shard] (by index) to [team] directly — the pre-movement
    primitive, kept for tests and healing paths that know the data is
    already in place. Raises [Invalid_argument] on an empty team. *)

val split : t -> at:string -> (unit, string) result
(** Split the shard containing [at] into [\[lo, at)] and [\[at, hi)]; both
    halves keep the team. Fails if [at] is a shard boundary or the shard is
    mid-move. *)

val merge_at : t -> lo:string -> (unit, string) result
(** Merge the shard starting at [lo] with its successor. Requires equal
    teams and neither shard mid-move. *)

val begin_move : t -> lo:string -> dst:int list -> (string * string * int list, string) result
(** Start moving the shard starting at [lo] to team [dst]: from now on
    mutations are dual-tagged to both teams. Returns [(lo, hi, src_team)]
    for the mover. Fails if already moving, [dst] is empty/out-of-range, or
    [dst] equals the current team. *)

val commit_move : t -> lo:string -> dst:int list -> (unit, string) result
(** Cut over: the destination becomes the serving team, atomically (a single
    synchronous mutation — no reader can observe a half-moved shard). [dst]
    must match the pending move so a stale mover racing an abort + re-move
    cannot commit the wrong team. *)

val abort_move : t -> lo:string -> (unit, string) result
(** Cancel an in-flight move; the current team keeps serving. *)
