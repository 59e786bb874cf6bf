(** Cluster deployment configuration (counts, placement, replication) and
    the protocol knobs a run may vary. Every role reads it through
    {!Context.t}, so each cluster carries its own knobs. *)

type dd_policy = {
  rebalance_interval : float;
      (** how often the DataDistributor evaluates splits/merges/moves *)
  split_bytes : int;  (** split a shard whose persistent size exceeds this *)
  split_bandwidth : float;
      (** split a shard whose read+write traffic exceeds this many bytes/s *)
  merge_bytes : int;
      (** merge adjacent same-team shards when both are smaller than this *)
  imbalance_ratio : float;
      (** move a shard off the hottest server when its load exceeds the
          coldest server's by this factor *)
}
(** Active data distribution (paper §2.3.1, §2.5). *)

type t = {
  machines : int;  (** worker machines (clients live on extra machines) *)
  coordinators : int;  (** coordinator processes, on the first N machines *)
  proxies : int;
  resolvers : int;
  log_servers : int;
  storage_per_machine : int;
  log_replication : int;  (** k = f+1 synchronous log replicas (§2.5) *)
  storage_replication : int;  (** team size (§2.5) *)
  shards_per_storage : int;  (** shard granularity: shards ≈ this × servers *)
  cc_candidates : int;  (** how many workers campaign for ClusterController *)
  racks : int;  (** fault domains: machine i is in rack [i mod racks] *)
  disks_per_machine : int;
  shard_boundaries : string list;
      (** explicit shard split points (ascending). Empty = even two-byte
          prefix split. Real FDB splits shards by observed data
          distribution; workloads with a common key prefix should supply
          boundaries matching their key population. *)
  regions : int;
      (** datacenters; machine [m] lives in region [m mod regions]
          (interleaved so replica teams and log recruitment naturally span
          regions). [regions = 2] gives the paper's §3 two-region layout in
          its synchronous-replication mode: commits wait for cross-region
          log replicas, and the §2.4.4 recovery performs automatic failover
          when a whole region dies. *)
  max_commit_batch : int;
      (** most transactions in one proxy commit batch; 1 = no batching
          (§2.6 ablation) *)
  proxy_commit_pipeline_depth : int;
      (** how many commit batches one proxy keeps in flight. Batch N+1
          fetches its own LSN and overlaps resolution and log pushes with
          batch N's push/report; an in-order completion stage keeps
          [Seq_report]s LSN-ordered and the proxy KCV monotone. 1 selects
          the serial commit path, kept as the benchmark baseline and as
          the reference of the serial-vs-pipelined equivalence test. *)
  dd : dd_policy;
}

val region_of_machine : t -> int -> string
(** Datacenter name ("dc1", "dc2", ...) of a machine index. *)

val default : t
(** A small functional cluster: 5 machines, 3 coordinators, 2 proxies,
    1 resolver, 3 log servers, 2 storage servers per machine, triple
    replication of logs and storage, 5 s MVCC window; batches of up to
    512 commits, 4 batches in flight per proxy, {!dd_default}. *)

val test_small : t
(** Minimal cluster for fast unit tests (3 machines, double replication). *)

val scaled : machines:int -> t
(** The paper's Figure 8 scaling shape: on [machines] hosts, run
    [machines - 2] proxies and log servers, storage on every machine,
    triple replication — mirroring "we use the same number of Proxies and
    LogServers" with 2 to 22 of each on 4 to 24 machines. *)

val storage_count : t -> int
(** Total StorageServers in the deployment. *)

val validate : t -> (unit, string) result
(** Sanity checks (enough machines for coordinators/replication etc.). *)
