(** The StorageServer: the protocol around one {!Versioned_store}, an
    in-memory version window over an unversioned persistent image (paper
    §2.3.2, §2.4.3, §2.4.4).

    A pull loop continuously peeks the tag's mutation stream from the
    current LogServers (including not-yet-durable entries, for low read
    lag) and applies it in LSN order, materializing atomic operations. A
    durability loop graduates mutations that have both left the MVCC window
    and become known-committed into the image, then pops them from the
    logs. Reads wait briefly for a future version and fail with
    [Transaction_too_old] below the window. On recovery the window suffix
    past RV is discarded; the persistent store never needs rollback because
    it only ever holds known-committed data. *)

type t

val create :
  Context.t -> Fdb_sim.Process.t -> id:int -> disk:Fdb_sim.Disk.t -> t Fdb_sim.Future.t
(** Open (recovering from disk if present) storage server [id], register
    its well-known endpoint, start the pull/durability loops, and install
    the boot thunk that re-creates everything after a crash. *)

val shard_metric : string -> string -> string
(** [shard_metric stem lo]: the name of the per-shard metric [stem]
    ([shard_read_bytes], [shard_write_bytes], [shard_size_bytes]) of the
    shard starting at [lo], as storage servers publish it. *)

val live_load : Fdb_obs.Registry.t -> now:float -> (float * int * float) list
(** [(lag, window_events, busy)] of every storage server whose heartbeat
    gauge is at most {!Params.heartbeat_timeout} old at [now], read from
    the gauges the servers publish each heartbeat: the one reader of
    storage load (the Ratekeeper, the status report). A server that
    stopped publishing (dead, partitioned from its own loop) drops out. *)

val drain :
  Context.t ->
  proc:Fdb_sim.Process.t ->
  int ->
  from:string ->
  until:string ->
  version:Types.version ->
  epoch:Types.epoch ->
  (string * string) list Fdb_sim.Future.t
(** Every row of [\[from, until)] at [version] from the storage server at
    endpoint [ep], in key order, drained by continuation round-trips (2 s
    timeout each). Fails on an error answer or a timeout; the
    caller owns the retry policy. *)
