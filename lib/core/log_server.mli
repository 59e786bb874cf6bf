(** The LogServer: a replicated, sharded, persistent queue of the redo log
    (paper §2.4.3, Figure 2).

    Pushes from Proxies carry (LSN, previous LSN, KCV) plus, in commit
    order, each mutation this server must store, once, with the tags it
    replicates for it (possibly no mutations). Each tag's stream is a view
    into those entries, so a mutation with several tags costs the push,
    the CPU charge and the memory only once. Records are persisted
    strictly in LSN-chain order and acknowledged only once durable, so the
    Durable Version (DV) is always chain-contiguous — the property the
    recovery's [RV = min DV] rule depends on. One sync is in flight at a
    time; it covers every record appended before it was issued. A locked
    server never acknowledges a push above the DV its lock reply reported. StorageServers peek their
    tag's stream (including not-yet-durable entries, §2.4.3 "aggressively
    fetch") and pop what they have persisted. A peek past the received
    version is a long poll: it is answered by the first push that reaches
    it, whatever that push's tags, by [Wrong_epoch] if the server is
    locked first, or empty at the current version after half of
    {!peek_timeout}.

    After a crash the server is resurrected from disk in {e stopped} mode:
    it can serve [Log_lock] for recovery and peeks for stragglers, but
    accepts no new pushes — its epoch is over. *)

type t

type Fdb_sim.Disk.record +=
  | Wal_entry of Message.log_entry
        (** A WAL record: the entry itself, shared with the server's
            in-memory log and charged a 24-byte header (LSN, previous LSN,
            KCV) plus {!entry_bytes}. A resurrected server works on these
            same entries. *)

val create :
  Context.t ->
  Fdb_sim.Process.t ->
  disk:Fdb_sim.Disk.t ->
  epoch:Types.epoch ->
  id:int ->
  start_lsn:Types.version ->
  t * int
(** Fresh LogServer for a new generation; registers and returns its
    endpoint, and installs a boot thunk that resurrects it from disk in
    stopped mode after a crash. *)

val logs_for_tag : n_logs:int -> replication:int -> Types.tag -> int list
(** Which LogServers replicate a tag: the preferred one plus the next
    [replication - 1], as in Figure 2. *)

val replicates : n_logs:int -> replication:int -> int -> Types.tag -> bool
(** [replicates ~n_logs ~replication li tag]: LogServer [li] is in
    [logs_for_tag tag]. *)

val entry_bytes : Message.log_entry -> int
(** The bytes a push of this entry carries and is charged for: each
    mutation once, whatever its tags. *)

val keep_tags : (Types.tag -> bool) -> Message.log_entry -> Message.log_entry option
(** The entry with each mutation's tags filtered by the predicate and the
    mutations left without a tag dropped; [None] once none remains. *)

val parked_peeks : t -> int
(** Long-poll peeks waiting for the received version to reach them. *)

val push_timeout : float
(** A proxy's push RPC timeout. A push parked this long, waiting for its
    predecessor, has been given up by its sender and is rejected. *)

val peek_timeout : float
(** The peek RPC timeout StorageServers use; parked peeks are answered
    well inside it. *)
