(** The StorageServer's in-memory multi-version window (paper §2.4.4: "an
    unversioned SQLite B-tree and in-memory multi-versioned redo log data").

    Holds the last ~5 seconds of mutations, indexed two ways: a
    chronological log (for feeding the persistent store in order, and for
    rollback on recovery) and a per-key history plus range-tombstone list
    (for serving reads at a version). Only concrete mutations are stored —
    atomic ops must be materialized by the caller before {!apply}.
    It also owns the snapshot floors of ranges fetched as a move
    destination: under a floor [(lo, hi, since)], the window's events of
    [\[lo, hi)] at or below [since] are invisible, and dropped when popped. *)

type t

type read_result =
  | Value of string  (** key present with this value at the read version *)
  | Cleared  (** key definitely absent at the read version *)
  | Unknown  (** no window event at or before the version: consult the
                 persistent store *)

val create : ?initial_version:int64 -> ?floors:(string * string * int64) list -> unit -> t

val install_floor : t -> lo:string -> hi:string -> since:int64 -> unit
(** The level below now holds [\[lo, hi)] as of [since]. Replaces a floor of
    the same range. *)

val floors : t -> (string * string * int64) list
(** The live floors, newest install first; [create ~floors] restores them. *)

val floor_over : t -> from:string -> until:string -> int64
(** The highest floor over any key of [\[from, until)] ([Int64.min_int] if
    none): the window cannot reconstruct the range's state below it. *)

val apply : t -> int64 -> Mutation.t -> unit
(** Record a mutation at a commit version. Versions must be non-decreasing;
    [Atomic] mutations are rejected with [Invalid_argument]. *)

val read : t -> int64 -> string -> read_result
(** Visible state of a key at a version, considering newer-wins ordering of
    per-key events and covering range clears. Events at or below the key's
    floor are treated as nonexistent. *)

val keys : t -> from:string -> until:string -> reverse:bool -> string Seq.t
(** Keys with any window event in [\[from, until)], in scan order:
    ascending, or descending when [reverse]. Lazy, and a snapshot of the
    window as it was when [keys] was called. *)

val last_change : t -> string -> int64 option
(** Newest version (above the key's floor) at which any window event —
    per-key or a covering range clear — touched the key; [None] if the
    window holds no such event. Watch registration uses this for catch-up: a watcher at
    version [w] with [last_change > w] already missed its change. *)

val pop_through : t -> int64 -> Mutation.t list
(** Remove the chronological prefix of mutations with version <= the
    argument and return, in application order, the parts of them no floor
    hides — the batch that graduates to the persistent store when it leaves
    the MVCC window. Floors at or below the argument retire. *)

val rollback : t -> after:int64 -> int
(** Discard all events with version > [after] (recovery §2.4.4); returns
    how many were dropped. *)

val latest : t -> int64
(** Highest version applied ([initial_version] if none). *)

val oldest : t -> int64
(** Lowest version still in the window (reads below this must go to the
    persistent store; the caller tracks whether that is safe). *)

val event_count : t -> int
(** Events currently buffered (Ratekeeper input). *)
