(** The directory layer: human-readable paths mapped to transactionally
    allocated short key prefixes (paper §1: the "directory" building
    block).

    A directory is a path like [\["app"; "users"\]]; opening it yields a
    {!Subspace.t} rooted at a short allocated prefix, so layer data keys
    stay small no matter how long the path is. Prefix ids come from a
    high-contention allocator: candidates are drawn randomly from a
    sliding window (utilization tracked with conflict-free atomic adds),
    and only the final claim of an id carries a conflict range — so
    concurrent allocations across many clients rarely abort, and two
    claimants of the same id are serialized by the Resolver.

    All operations take effect inside the caller's transaction: a created
    directory is visible to others only once the transaction commits, and
    the allocator's claim conflicts protect uniqueness across concurrent
    creators. *)

val create_or_open :
  Fdb_core.Client.tx -> string list -> Subspace.t Fdb_sim.Future.t
(** Open the directory at the path, creating it (and any missing parents)
    with a freshly allocated prefix if absent. The empty path is the
    content root. Reopening an existing directory returns the same
    prefix. *)

val open_ : (* fdb-lint: allow R7 -- directory layer API *)
  Fdb_core.Client.tx -> string list -> Subspace.t option Fdb_sim.Future.t
(** [None] if the directory does not exist. *)

val exists : Fdb_core.Client.tx -> string list -> bool Fdb_sim.Future.t

val list : Fdb_core.Client.tx -> string list -> string list Fdb_sim.Future.t
(** Names of the immediate children of the path (one range scan). *)

val remove : Fdb_core.Client.tx -> string list -> bool Fdb_sim.Future.t
(** Delete the directory, its contents, and all its children recursively;
    [false] if it did not exist. Raises [Invalid_argument] on the root. *)

(**/**)

val allocate : Fdb_core.Client.tx -> int Fdb_sim.Future.t
(** The raw high-contention allocator (exposed for tests). *)

val prefix_of_id : int -> string
