(** The unversioned durable store under each StorageServer — our stand-in
    for the paper's modified SQLite B-tree.

    An ordered in-memory map backed by a write-ahead log on a simulated
    {!Fdb_sim.Disk}: mutations append sequenced WAL records; {!commit}
    syncs them; a checkpoint (a snapshot record holding the image) is taken
    when the WAL grows long, after which older snapshots are dropped and the
    WAL is truncated, so the snapshot file holds one record. Records are
    values: a snapshot is the immutable map itself, sharing structure with
    the live image. A WAL record is charged its 8-byte sequence number plus
    its mutation's key and value bytes, a snapshot its sequence number plus
    every key and value. {!recover} rebuilds the map from the very values
    of the newest durable snapshot plus the contiguous WAL suffix — torn tails
    (buggified crashes) are detected via sequence-number gaps and discarded,
    so recovery never surfaces unsynced data as durable. *)

type t

val recover :
  disk:Fdb_sim.Disk.t -> prefix:string -> ?checkpoint_every:int -> unit -> t Fdb_sim.Future.t
(** Open (creating if absent) the store persisted under [prefix] on [disk].
    [checkpoint_every] is the WAL length that triggers a snapshot
    (default 5000 records). *)

val get : t -> string -> string option
(** Point read from the in-memory image (the B-tree cache). *)

val range : t -> from:string -> until:string -> reverse:bool -> (string * string) Seq.t
(** Entries with [from <= key < until] in scan order: ascending, or
    descending when [reverse]. Lazy, so a budgeted scan or a fold touches
    only the entries it consumes and builds no list; the sequence reads the
    image as it was when [range] was called (the map is immutable), so
    later {!apply}s do not disturb it. *)

val apply : t -> Mutation.t list -> unit Fdb_sim.Future.t
(** Apply a batch in order: updates the image and appends WAL records.
    Not durable until {!commit}. [Atomic] mutations are rejected. *)

val commit : t -> unit Fdb_sim.Future.t
(** Sync the WAL (and take a checkpoint if it is due). *)

val last_seq : t -> int
(** Sequence number of the newest applied mutation (monotonic). *)

val entry_count : t -> int
