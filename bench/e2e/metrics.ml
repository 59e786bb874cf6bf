(* The metric catalog: every metric the benchmark reports, with its unit.
   BENCHMARK.json lists the same names; [fdb_bench smoke] fails when the
   two disagree or a value is not finite. *)

type t = { name : string; unit_ : string; value : float }

(* Reported by every workload with --trace 0. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_tps", "txn/s");
    ("txn_p50_ms", "ms");
    ("txn_p99_ms", "ms");
    ("grv_p99_ms", "ms");
    ("read_p50_ms", "ms");
    ("peak_heap_mb", "MiB");
  ]

(* Reported by every workload with --trace 1; 0 where a layer has nothing
   to report on a workload (no ranges, no faults, no writes). *)
let per_layer =
  [
    ("client.grv_p50_ms", "ms");
    ("client.read_p99_ms", "ms");
    ("client.commit_p50_ms", "ms");
    ("client.commit_p99_ms", "ms");
    ("client.failed_frac", "ratio");
    ("client.attempts_per_commit", "ratio");
    ("client.conflict_frac", "ratio");
    ("client.range_p50_ms", "ms");
    ("client.range_p99_ms", "ms");
    ("client.range_fanout", "count");
    ("client.read_failovers", "count");
    ("client.outage_p50_s", "s");
    ("client.outage_max_s", "s");
    ("client.outage_n", "count");
    ("client.self_p99_ms", "ms");
    ("client.txn_samples", "count");
    ("client.grv_samples", "count");
    ("client.read_samples", "count");
    ("client.commit_samples", "count");
    ("proxy.grv_p99_ms", "ms");
    ("proxy.commit_p99_ms", "ms");
    ("proxy.resolve_p99_ms", "ms");
    ("proxy.logpush_p99_ms", "ms");
    ("proxy.queue_depth_max", "count");
    ("proxy.inflight_batches_max", "count");
    ("proxy.cpu_util_max", "ratio");
    ("sequencer.cpu_util", "ratio");
    ("sequencer.epochs", "count");
    ("resolver.cpu_util", "ratio");
    ("resolver.conflict_frac", "ratio");
    ("resolver.history_entries_max", "count");
    ("resolver.batch_check_cost_max", "count");
    ("log.cpu_util_max", "ratio");
    ("log.append_p99_ms", "ms");
    ("log.unpopped_mb_max", "MiB");
    ("storage.cpu_util_max", "ratio");
    ("storage.cpu_util_mean", "ratio");
    ("storage.read_p99_ms", "ms");
    ("storage.lag_max_s", "s");
    ("storage.busy_max_s", "s");
    ("ratekeeper.rate_min_tps", "txn/s");
    ("ratekeeper.throttles", "count");
    ("kv.check_note_ns", "ns");
    ("sim.cpu_us_per_txn", "us");
    ("sim.alloc_words_per_txn", "words");
    ("sim.trace_events_per_txn", "count");
    ("sim.disk_bytes_per_user_byte", "ratio");
    ("sim.pending_tasks_max", "count");
    ("sim.phase_cpu_s", "s");
    ("bench.gen_late_max_ms", "ms");
    ("bench.trace_overhead_frac", "ratio");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> ( match List.assoc_opt name per_layer with Some u -> u | None -> invalid_arg name)

let make name value = { name; unit_ = unit_of name; value }

(* The catalog's metrics in catalog order, with values from [values]; a
   metric the run did not produce is a bug in the benchmark. *)
let select catalog values =
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some value -> { name; unit_; value }
      | None -> failwith ("fdb_bench: no value for metric " ^ name))
    catalog
