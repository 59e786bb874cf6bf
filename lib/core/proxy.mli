(** The Proxy: client front door for read versions and commits
    (paper §2.4.1, Figure 1).

    GRV requests are batched (one Sequencer round-trip serves the batch,
    §2.6) and rate-limited by the Ratekeeper's current TPS. Commits are
    batched, assigned one commit version / LSN per batch, resolved against
    every Resolver, stamped (versionstamp operations), fanned out to every
    LogServer as one message carrying each mutation once with its tags
    (Figure 2), and acknowledged to clients
    only after {e all} LogServers confirm durability — the paper's
    all-replicas rule that lets recovery use RV = min DV. A proxy that
    cannot complete this pipeline marks itself failed so the Sequencer's
    monitor ends the epoch; the ClusterController retires the proxies of
    a generation whose sequencer it declares failed.

    Up to [Config.proxy_commit_pipeline_depth] batches are in flight
    concurrently: each fetches its own [(lsn, prev)] pair (gated so LSNs
    follow launch order) and resolves/pushes without waiting for its
    predecessor — the §2.4.1 prev-chaining at Resolvers and LogServers
    re-orders out-of-order arrivals — while an in-order completion stage
    keeps [Seq_report]s LSN-ordered, the KCV monotone, and fails every
    in-flight batch after a failed one (see DESIGN.md "The commit
    pipeline"). Depth 1 is the serial path, the benchmark baseline.

    No batch waits on a timer: a GRV batch is whatever queued while the
    previous one awaited the Sequencer, and a commit batch whatever queued
    until the previous one held its version. *)

type t

val create :
  Context.t ->
  Fdb_sim.Process.t ->
  epoch:Types.epoch ->
  sequencer:int ->
  resolvers:(Message.key_range * int) list ->
  logs:(int * int) list ->
  ratekeeper:int option ->
  recovery_version:Types.version ->
  t * int

val is_dead : t -> bool

val handle : t -> 'r Message.req -> ('r, Error.t) result Fdb_sim.Future.t
(** The request handler the proxy's endpoint serves (exposed so tests can
    drive a proxy without the network's latency). *)

val build_log_entries :
  Shard_map.t ->
  n_logs:int ->
  replication:int ->
  Types.version ->
  Types.version ->
  kcv:Types.version ->
  Fdb_kv.Mutation.t list ->
  Message.log_entry array
(** [build_log_entries map ~n_logs ~replication lsn prev ~kcv muts]: one
    entry per LogServer (Figure 2). Entry [i] holds, in commit order, each
    mutation with a tag that LogServer [i] replicates, once, tagged with
    exactly those tags; a LogServer with none gets an empty payload. *)
