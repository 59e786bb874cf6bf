(** The client library: database handles and transactions (paper §2.2).

    A transaction observes a snapshot at its read version (lazily acquired
    from a Proxy, §2.4.1), buffers writes locally with read-your-writes
    semantics, and ships read/write conflict ranges and mutations to a
    Proxy at commit. Read-only transactions commit locally without
    contacting the cluster. {!run} is the standard retry loop.

    Range reads run through a parallel pipeline: the client resolves the
    range into per-shard fragments against its shard map and keeps up to
    {!Params.client_range_fanout} fragment sub-reads in flight, each
    bounded by row and byte budgets, with replica choice load-balanced by
    the deterministic RNG and transparent failover to another team member
    on per-replica errors. *)

type db
type tx

(** All failures surface as the [Error.Fdb] exception carrying a typed
    {!Error.t}; {!Error.classify} recovers the typed error from any
    exception a transaction raised. *)

module Error : sig
  type t = Error.t =
    | Not_committed
    | Commit_unknown_result
    | Transaction_too_old
    | Future_version
    | Process_behind
    | Wrong_shard
    | Timed_out
    | Database_locked
    | Key_too_large
    | Value_too_large
    | Transaction_too_large
    | Key_outside_legal_range
    | Used_during_commit
    | Wrong_epoch
    | Internal of string
  (** The one transaction-error variant, re-exported so applications and
      layers can program against [Client.Error] alone. *)

  val retryable : t -> bool
  (** May {!run} retry the transaction from the top? The single authority
      the retry loop keys off. *)

  val classify : exn -> t option
  (** [Some err] when the exception is a typed transaction outcome;
      [None] for anything else (engine internals, programming errors),
      which {!run} never retries. *)

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
  val fail : t -> 'a Fdb_sim.Future.t
end

val create_db : Context.t -> Fdb_sim.Process.t -> db
(** A database handle for a client living on the given process (the
    context plays the role of the cluster file). *)

val refresh : db -> unit Fdb_sim.Future.t
(** Re-discover the current proxies via the coordinators/ClusterController.
    Called automatically when requests keep failing. *)

(** {2 Key selectors} *)

module Key_selector : sig
  type t = Message.key_selector = {
    sel_key : string;
    sel_or_equal : bool;
    sel_offset : int;
  }
  (** Resolution: find the last key [<= sel_key] ([< sel_key] when
      [sel_or_equal] is false), then move [sel_offset] keys forward.
      Resolution happens at the storage servers against the MVCC window at
      the transaction's read version; walks that run off the edge of the
      key space clamp to [""] / {!Types.key_space_end}. *)

  val first_greater_or_equal : ?offset:int -> string -> t
  val first_greater_than : ?offset:int -> string -> t
  val last_less_or_equal : ?offset:int -> string -> t
  val last_less_than : ?offset:int -> string -> t
  (** The four canonical selectors; [offset] shifts the resolved key that
      many keys forward (may be negative). *)
end

(** {2 Transaction options} *)

type tx_options = {
  opt_timeout : float option;  (** overall [run] deadline, seconds *)
  opt_retry_limit : int option;  (** max [run] attempts *)
  opt_max_read_bytes : int option;
      (** per-transaction cap on bytes fetched from storage; exceeding it
          fails the read with [Transaction_too_large] *)
}

val default_options : tx_options
(** All [None]: no deadline, default retry limit, unbounded reads. *)

(** {2 Transactions} *)

val begin_tx : ?options:tx_options -> db -> tx

val set_option : tx -> tx_options -> unit
(** Replace the transaction's options (FDB's transaction option plumbing). *)

val get_read_version : tx -> Types.version Fdb_sim.Future.t
(** The transaction's snapshot version (first call contacts a Proxy). *)

val read_snapshot : tx -> (Types.version * Types.epoch) Fdb_sim.Future.t
(** The snapshot version together with the generation that minted it —
    what storage servers need to gate reads correctly (tools issuing raw
    storage requests must carry both). *)

val set_read_version : tx -> Types.version -> unit
(** Pin the snapshot version (e.g. for read-at-version tooling). *)

val get : ?snapshot:bool -> tx -> string -> string option Fdb_sim.Future.t
(** Point read with read-your-writes. [snapshot:true] skips the read
    conflict range (§2.4.1 snapshot reads). *)

val get_key : ?snapshot:bool -> tx -> Key_selector.t -> string Fdb_sim.Future.t
(** Resolve a key selector at the transaction's snapshot, merged with
    buffered writes. Clamps to [""] / {!Types.key_space_end} off the ends. *)

(** {2 The unified range API}

    Every range read is a {!Range_query.t}: two key-selector endpoints, a
    row limit, a streaming mode, direction, snapshot-ness, and an optional
    continuation cursor. {!range} evaluates one bounded batch (streaming);
    {!range_all} drains the query to a list. They are the only range
    reads. *)

type batch = {
  batch_rows : (string * string) list;
  batch_continuation : string option;
      (** resume cursor — rebuild the query with [?continuation] to
          fetch the next batch; [None] when the range is exhausted *)
}

val range : tx -> Range_query.t -> batch Fdb_sim.Future.t
(** One bounded batch of the query, merged with buffered writes, with a
    continuation cursor for the next batch ([None] when exhausted), so
    callers can stream arbitrarily large ranges at bounded memory. Adds a
    read conflict only over the span the batch actually observed (unless
    [rq_snapshot]). Plain-key bounds beyond {!Types.key_space_end} raise
    [Key_outside_legal_range]; selector bounds clamp to the key space. *)

val range_all : tx -> Range_query.t -> (string * string) list Fdb_sim.Future.t
(** Drain the query: loop batches, stitching continuations, until the
    range is exhausted or [rq_limit] rows are in hand. Non-snapshot
    queries conflict on the whole requested range up front. *)

val set : tx -> string -> string -> unit
val clear : tx -> string -> unit
val clear_range : tx -> from:string -> until:string -> unit

val atomic_op : tx -> Fdb_kv.Mutation.atomic_kind -> string -> string -> unit
(** [atomic_op tx kind key operand] — conflict-free read-modify-write
    (§2.6); adds a write conflict range but no read range. *)

val set_versionstamped_key : tx -> template:string -> offset:int -> value:string -> unit
(** [template] must contain 10 bytes at [offset] that the Proxy overwrites
    with the commit versionstamp (§2.6). *)

val set_versionstamped_value : tx -> key:string -> template:string -> offset:int -> unit

val add_read_conflict_range : tx -> from:string -> until:string -> unit
val add_write_conflict_range : tx -> from:string -> until:string -> unit
(** Manual conflict ranges: the fine-grained control the paper describes
    for relaxing or strengthening isolation. *)

val commit : tx -> Types.version Fdb_sim.Future.t
(** Commit; the version is the transaction's commit version (0 for
    read-only transactions). Fails with a typed {!Error.t}. Idempotent:
    repeated calls return the first outcome. A successful commit arms any
    {!watch}es the transaction created. *)

(** {2 Watches}

    A watch wakes a client when a key changes (paper §2.2: FDB watches).
    Created inside a transaction and armed only if that transaction
    commits, with watch version max(read version, commit version): the
    transaction's own write to the key does not wake it, and neither does
    anything it already observed. The client long-polls the key's storage
    team ({!Params.watch_poll_timeout} per round), re-registering across
    shard moves and failovers; the storage side checks its MVCC window at
    registration so changes landing between rounds are never lost. Wakes
    may be spurious (e.g. when no server can prove the key unchanged
    across a recovery) — waiters re-read and re-arm; wakes are never
    lost. *)

type watch

val watch : tx -> string -> watch
(** Create a watch on a key. Buffers until {!commit}: armed on success,
    cancelled (future fails with [Future.Cancelled]) on failure. *)

val watch_future : watch -> unit Fdb_sim.Future.t
(** Resolves when the watched key changes after the creating
    transaction's snapshot/commit (or conservatively, see above); fails
    with [Future.Cancelled] if the watch is cancelled. *)

val watch_key : watch -> string

val cancel_watch : watch -> unit
(** Resolve the watch future with [Future.Cancelled] (idempotent; no-op
    after the watch fired). The background poll loop winds down on its
    next round. Always cancel watches you stop waiting on. *)

val run :
  db ->
  ?max_attempts:int ->
  ?options:tx_options ->
  (tx -> 'a Fdb_sim.Future.t) ->
  'a Fdb_sim.Future.t
(** Standard retry loop: run the body, commit, and retry (with capped
    exponential backoff) on retryable errors. The body must be idempotent
    under retry, as in FDB. [options] is threaded into every attempt's
    transaction; [opt_retry_limit] overrides [max_attempts] and
    [opt_timeout] bounds the whole loop, failing with [Timed_out]. *)

val versionstamp_placeholder : string
(** Ten zero bytes to embed where the stamp should land. *)
