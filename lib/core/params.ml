(* CPU service times (seconds). Calibration anchors, from the paper:
   - one Resolver ~ 280K TPS            -> resolver_per_txn ~ 3.5e-6
   - 22 LogServers CPU-saturate at ~1.4 GB/s raw (467 MB/s x3 replication)
                                        -> log_per_byte ~ 1.5e-8 (66 MB/s/core)
   - 336 StorageServers serve ~22 GB/s of range reads (T500)
                                        -> storage_per_range_key dominated
   - mean read latency floor ~0.35 ms, GRV ~1 ms, commit ~2 ms at low load *)

(* cpu_scale multiplies only per-transaction / per-byte / per-key costs;
   fixed per-batch overheads (sequencer request, proxy batch, log push) stay
   unscaled so that batching amortization and the "singletons are not
   bottlenecks" property (§2.3.3) survive scaling. The one mutable knob:
   every other tunable is a constant here or a Config.t field. *)
let cpu_scale = ref 1.0
let cpu base = base *. !cpu_scale

let sequencer_per_request = 2e-6
let proxy_per_batch = 2.0e-5
let proxy_per_txn = 4e-6
let proxy_per_byte = 2e-9
let resolver_per_txn = 2.5e-6
let resolver_per_range = 0.5e-6
let log_per_push = 1.0e-5
let log_per_byte = 1.5e-8
let storage_per_point_read = 4.0e-5
let storage_per_range_key = 1.2e-6
let storage_per_apply = 2e-6
let storage_per_apply_byte = 4e-9

let grv_batch_interval = 5e-4
let commit_batch_interval = 1e-3
let storage_peek_interval = 5e-3
let storage_durable_interval = 0.25
let heartbeat_interval = 0.25
let heartbeat_timeout = 1.0
let ratekeeper_interval = 0.5
let lease_duration = 3.0
let storage_read_wait = 0.3
let client_read_timeout = 0.6

(* Range-read pipeline (client -> storage). A wide range read fans out
   per-shard sub-reads concurrently; each round-trip carries a row AND a
   byte budget so no single reply is unbounded, and oversized shards are
   drained by continuation round-trips. *)
(* Watches (layer ecosystem). One registration long-polls on the server for
   at most [watch_poll_timeout] simulated seconds before replying not-fired
   with the server's current version; the client immediately re-registers
   from that version. The poll window must sit comfortably inside the MVCC
   window (default 5 s) so a re-registration version never falls below
   [Version_window.oldest] on a healthy server. *)
let watch_poll_timeout = 2.0

let client_range_fanout = 4
let range_rows_per_batch = 256
let range_bytes_per_req = 65_536
let range_bytes_want_all = 10_000_000

(* Data distribution (paper §2.3.1, §2.5); the thresholds are per cluster
   (Config.dd_policy). *)
let dd_move_timeout = 30.0 (* abort moves pending longer than this *)
