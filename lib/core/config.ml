type dd_policy = {
  rebalance_interval : float;
  split_bytes : int;
  split_bandwidth : float;
  merge_bytes : int;
  imbalance_ratio : float;
}

type t = {
  machines : int;
  coordinators : int;
  proxies : int;
  resolvers : int;
  log_servers : int;
  storage_per_machine : int;
  log_replication : int;
  storage_replication : int;
  mvcc_window : float;
  shards_per_storage : int;
  cc_candidates : int;
  racks : int;
  disks_per_machine : int;
  shard_boundaries : string list;
  regions : int;
  max_commit_batch : int;
  proxy_commit_pipeline_depth : int;
  dd : dd_policy;
}

let region_of_machine t m = Printf.sprintf "dc%d" (1 + (m mod max 1 t.regions))

let dd_default =
  {
    rebalance_interval = 1.0;
    split_bytes = 250_000;
    split_bandwidth = 1_000_000.0;
    merge_bytes = 10_000;
    imbalance_ratio = 3.0;
  }

let default =
  {
    machines = 5;
    coordinators = 3;
    proxies = 2;
    resolvers = 1;
    log_servers = 3;
    storage_per_machine = 2;
    log_replication = 3;
    storage_replication = 3;
    mvcc_window = 5.0;
    shards_per_storage = 2;
    cc_candidates = 3;
    racks = 5;
    disks_per_machine = 8;
    shard_boundaries = [];
    regions = 1;
    max_commit_batch = 512;
    proxy_commit_pipeline_depth = 4;
    dd = dd_default;
  }

let test_small =
  {
    default with
    machines = 3;
    proxies = 1;
    log_servers = 2;
    storage_per_machine = 1;
    log_replication = 2;
    storage_replication = 2;
    cc_candidates = 2;
    racks = 3;
    disks_per_machine = 2;
  }

let scaled ~machines =
  let ts = max 2 (machines - 2) in
  {
    default with
    machines;
    proxies = ts;
    resolvers = 2;
    log_servers = ts;
    storage_per_machine = 14;
    log_replication = min 3 ts;
    storage_replication = min 3 (machines * 14);
    shards_per_storage = 4;
    racks = min machines 9;
  }

let storage_count t = t.machines * t.storage_per_machine

let validate t =
  if t.machines < 1 then Error "need at least one machine"
  else if t.coordinators > t.machines then Error "more coordinators than machines"
  else if t.coordinators < 1 then Error "need a coordinator"
  else if t.log_replication > t.log_servers then Error "log replication exceeds log servers"
  else if t.storage_replication > storage_count t then
    Error "storage replication exceeds storage servers"
  else if t.proxies < 1 || t.resolvers < 1 || t.log_servers < 1 then
    Error "need at least one proxy, resolver and log server"
  else Ok ()
