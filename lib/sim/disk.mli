(** Simulated durable storage (paper §4: "disk behavior (e.g. the corruption
    of unsynchronized writes when machines reboot)").

    A disk holds named files, each an append-only sequence of records. A
    record becomes durable only after {!sync}; when the owning process
    crashes, unsynced records are lost — or, under buggification, a random
    subset of them survives, modelling out-of-order page writes. Consumers
    that need ordering (write-ahead logs) must therefore embed sequence
    numbers and keep only a contiguous durable prefix, which is exactly what
    {!Fdb_kv.Persistent_store} and the LogServer do.

    Operations are serviced FCFS with seek + bandwidth service times, so a
    disk saturates realistically (LogServers are the write bottleneck in
    the paper's Figure 8a). *)

type t

val create :
  ?seek:float ->
  ?bytes_per_sec:float ->
  ?sync_latency:float ->
  unit ->
  t
(** A fresh SSD-like disk: default 80 µs seek, 500 MB/s, 300 µs sync. *)

val attach : t -> Process.t -> unit
(** Arrange for the disk to drop (or corrupt, under buggify) unsynced
    writes when the process dies or reboots. Attach to every process that
    writes to the disk. *)

val append : t -> string -> string -> unit Future.t
(** [append d file record] — buffered write of one record (visible to reads
    immediately, durable only after {!sync}). *)

val sync : t -> string -> unit Future.t
(** Make all buffered records of the file durable. *)

val read_all : t -> string -> string list Future.t
(** All currently visible records of the file, in append order ([[]] if the
    file does not exist). *)

val write_file : t -> string -> string -> unit Future.t
(** Atomically replace the file's contents with a single record (truncate +
    append; still requires {!sync} for durability). *)

val read_file : t -> string -> string option Future.t
(** The last record of the file, if any. *)

val delete : t -> string -> unit Future.t
val crash : t -> unit
(** Drop unsynced data now (normally invoked via {!attach}'s hook). *)

val bytes_written : t -> float
(** Total bytes appended (diagnostics / utilization). *)

val durable_count : t -> string -> int
(** How many of the file's oldest records are durable ([0] if the file does
    not exist). *)

val drop_prefix : t -> string -> int -> unit
(** [drop_prefix d file n] discards the oldest [n] records of the file
    (log-rotation support: callers drop records they have proven dead).
    Durability accounting shifts accordingly; no I/O is modelled. *)
