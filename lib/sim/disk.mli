(** Simulated durable storage (paper §4: "disk behavior (e.g. the corruption
    of unsynchronized writes when machines reboot)").

    A disk holds named files, each an append-only sequence of records. A
    record is a value, not bytes: each durable format adds its own
    constructor to {!record}, and the disk keeps the value itself, so a
    reader gets back the very value that was written. The writer declares
    what the record costs to write ([~bytes]: the logical size of what it
    holds, such as its keys and values plus fixed headers), and the disk
    charges that many bytes of transfer time.

    A record becomes durable only after {!sync}; when the owning process
    crashes, unsynced records are lost — or, under buggification, a random
    subset of them survives, modelling out-of-order page writes. A record
    is never damaged: it survives whole or not at all. Consumers that need
    ordering (write-ahead logs) must therefore embed sequence numbers and
    keep only a contiguous durable prefix, which is exactly what
    {!Fdb_kv.Persistent_store} and the LogServer do.

    Operations are serviced FCFS with seek + bandwidth service times, so a
    disk saturates realistically (LogServers are the write bottleneck in
    the paper's Figure 8a). *)

type record = ..
(** One record of a file; each durable format extends this type. *)

type record += Raw of string
(** Uninterpreted bytes (small fixed-layout files, tests). *)

type t

val create :
  ?seek:float ->
  ?bytes_per_sec:float ->
  ?sync_latency:float ->
  unit ->
  t
(** A fresh SSD-like disk: default 80 µs seek, 500 MB/s, 300 µs sync. *)

val attach : t -> Process.t -> unit
(** Arrange for the disk to drop unsynced records (all of them, or under
    buggify a random subset) when the process dies or reboots. Attach to
    every process that writes to the disk. *)

val append : t -> string -> bytes:int -> record -> unit Future.t
(** [append d file ~bytes record] — buffered write of one record that costs
    [bytes] of transfer (visible to reads immediately, durable only after
    {!sync}). *)

val sync : t -> string -> unit Future.t
(** Make durable the records buffered when the sync is issued, wherever a
    {!drop_prefix} that runs while it is served moves them. Records
    appended, or a file rewritten by {!write_file}, meanwhile wait for the
    next sync. *)

val read_all : t -> string -> record list Future.t
(** All currently visible records of the file, in append order ([[]] if the
    file does not exist). *)

val write_file : t -> string -> bytes:int -> record -> unit Future.t
(** Atomically replace the file's contents with a single record (truncate +
    append; still requires {!sync} for durability). *)

val read_file : t -> string -> record option Future.t
(** The last record of the file, if any. *)

val delete : t -> string -> unit Future.t
val crash : t -> unit
(** Drop unsynced data now (normally invoked via {!attach}'s hook). *)

val bytes_written : t -> float
(** Total bytes charged by {!append} and {!write_file} (diagnostics /
    utilization). *)

val durable_count : t -> string -> int
(** How many of the file's oldest records are durable ([0] if the file does
    not exist). *)

val drop_prefix : t -> string -> int -> unit
(** [drop_prefix d file n] discards the oldest [n] records of the file
    (log-rotation support: callers drop records they have proven dead).
    Durability accounting shifts accordingly; no I/O is modelled. *)
