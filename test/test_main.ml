let () =
  Alcotest.run "fdb"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("future", Test_future.suite);
      ("engine", Test_engine.suite);
      ("network", Test_network.suite);
      ("disk", Test_disk.suite);
      ("kv", Test_kv.suite);
      ("storage-substrate", Test_storage_substrate.suite);
      ("versioned-store", Test_versioned_store.suite);
      ("paxos", Test_paxos.suite);
      ("cluster", Test_cluster.suite);
      ("recovery", Test_recovery.suite);
      ("simulation", Test_simulation.suite);
      ("geo", Test_geo.suite);
      ("shard-map", Test_shard_map.suite);
      ("data-distribution", Test_data_distribution.suite);
      ("workloads", Test_workloads.suite);
      ("tuple", Test_tuple.suite);
      ("client-ryw", Test_client_ryw.suite);
      ("client-retry", Test_client_retry.suite);
      ("range-pipeline", Test_range_pipeline.suite);
      ("read-bounce", Test_read_bounce.suite);
      ("commit-pipeline", Test_commit_pipeline.suite);
      ("log-server", Test_log_server.suite);
      ("resolver", Test_resolver.suite);
      ("watch", Test_watch.suite);
      ("layers", Test_layers.suite);
      ("crash-consistency", Test_crash_consistency.suite);
      ("types", Test_types.suite);
      ("lint", Test_lint.suite);
      ("sanitizer", Test_sanitizer.suite);
      ("determinism", Test_determinism.suite);
    ]
