(** Calibrated service-time and protocol-timing parameters.

    These model where real FDB processes spend CPU, so that saturation and
    queueing in the simulator reproduce the *shapes* of the paper's
    evaluation figures (who saturates first, by what factor throughput
    scales). EXPERIMENTS.md records the calibration rationale. All times in
    seconds.

    Everything here is a constant except {!cpu_scale}. Knobs that a run
    varies (batch cap, pipeline depth, the data-distribution policy) are {!Config.t} fields, so two clusters
    can differ in them without touching shared state. *)

val cpu_scale : float ref
(** Global multiplier on every CPU service time (default 1.0). Benchmarks
    raise it to run the paper's saturation experiments at a uniformly
    scaled-down op rate: shapes (scaling factors, saturation knees, who
    bottlenecks) are preserved while simulation cost drops by the same
    factor. EXPERIMENTS.md documents the scale used per figure.

    It stays the one process-wide ref because the end-to-end benchmark
    harness ([bench/e2e/harness.ml]) sets it to 0 while it preloads and
    restores it mid-run, on a cluster that already exists. *)

val cpu : float -> float
(** [cpu base] is the effective service time [base *. !cpu_scale]. *)

(* {2 CPU service times} *)

val sequencer_per_request : float
val proxy_per_batch : float
val proxy_per_txn : float
val proxy_per_byte : float
val resolver_per_txn : float
(** ~3.5 µs: one single-threaded Resolver sustains ~280K TPS (paper §2.4.2). *)

val resolver_per_range : float
val log_per_push : float
val log_per_byte : float
(** LogServer CPU per logged byte — the write-path bottleneck (Figure 8a). *)

val storage_per_point_read : float
val storage_per_range_key : float
val storage_per_apply : float
val storage_per_apply_byte : float

(* {2 Protocol timing} *)

val storage_pull_backoff : float
(** How long a StorageServer waits before peeking again after a failed
    pull. A successful pull is followed by the next peek at once: peeks
    long-poll on the LogServer. *)

val storage_durable_interval : float
(** How often buffered window data is persisted (longer delay coalesces
    I/O, paper §2.4.3). *)

val heartbeat_interval : float
val heartbeat_timeout : float
val ratekeeper_interval : float
val lease_duration : float
(** ClusterController election lease. *)

val storage_read_wait : float
(** How long a StorageServer waits for a future version before erroring. *)

val client_read_timeout : float
(** Per-replica read attempt timeout before trying another replica. *)

val watch_poll_timeout : float
(** How long a StorageServer holds one watch registration before replying
    not-fired (the client re-registers from the server's reply version).
    Kept well under the MVCC window so re-registrations never go stale on
    a healthy server. *)

(* {2 Range-read pipeline} *)

val range_rows_per_batch : int
(** Row budget of one iterator-mode streaming batch. *)

val range_bytes_per_req : int
(** Byte budget of one iterator-mode streaming batch (64 KiB). *)

val range_bytes_want_all : int
(** Byte budget per round-trip for [`Want_all]/[`Exact] reads. *)

(* {2 Data distribution} *)

val dd_move_timeout : float
(** Abort in-flight moves pending longer than this (mover died mid-fetch). *)
