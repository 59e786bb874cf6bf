(* Per-layer measurements for the traced run, all taken from outside the
   system through public state: registry cells ([Cluster.metrics]), the
   CPU time each role process has accumulated ([Process.cpu_used]), disk
   bytes ([Cluster.log_bytes]) and the engine's queue length. Gauges are
   sampled when the benchmark's own transactions complete, so sampling
   schedules no events, sleeps nowhere and draws no randomness: the traced
   run keeps the untraced run's event stream and checksum. *)

open Fdb_sim
open Fdb_core
module Registry = Fdb_obs.Registry

(* Role processes by name prefix (Worker names them "proxy-<epoch>",
   "tlog-<epoch>.<id>", ...; storage servers are "storage-<n>"). *)
let role_prefixes =
  [
    ("proxy", "proxy-");
    ("resolver", "resolver-");
    ("log", "tlog-");
    ("storage", "storage-");
    ("sequencer", "sequencer");
    ("ratekeeper", "ratekeeper");
  ]

let processes cluster =
  Array.to_list (Cluster.worker_machines cluster)
  |> List.concat_map (fun m -> m.Process.machine_processes)

let with_prefix prefix procs =
  List.filter (fun p -> String.starts_with ~prefix p.Process.name) procs

(* Highest generation among the proxies ever recruited: recoveries during a
   phase show as the difference between its two ends. *)
let max_epoch cluster =
  List.fold_left
    (fun acc p ->
      match Scanf.sscanf_opt p.Process.name "proxy-%d%!" (fun e -> e) with
      | Some e -> max acc e
      | None -> acc)
    0 (processes cluster)

(* A gauge metric of one role, with cached references to its per-process
   cells. New processes (a recovery recruits a new generation) register new
   cells, so the cache is refreshed once per simulated second. *)
type gauge_watch = {
  role : Registry.role;
  metric : string;
  mutable cells : (int * float ref) list;  (* ascending pid *)
  mutable hi : float;
  mutable lo : float;
}

let watch role metric = { role; metric; cells = []; hi = Float.neg_infinity; lo = Float.infinity }

type phase_start = {
  ps_time : float;
  ps_cpu : (int * float) list;  (* pid -> cpu_used *)
  ps_counters : (string * int) list;
  ps_disk : float;
  ps_epoch : int;
  ps_trace_events : int;
}

type t = {
  cluster : Cluster.t;
  queue_depth : gauge_watch;
  inflight : gauge_watch;
  history : gauge_watch;
  check_cost : gauge_watch;
  unpopped : gauge_watch;
  lag : gauge_watch;
  busy : gauge_watch;
  rate : gauge_watch;
  fanout : gauge_watch;
  fanout_samples : Samples.t;
  mutable refreshed_at : float;
  mutable pending_max : int;
  mutable start : phase_start option;
}

let create cluster =
  {
    cluster;
    queue_depth = watch Registry.Proxy "commit_queue_depth";
    inflight = watch Registry.Proxy "commit_inflight_batches";
    history = watch Registry.Resolver "history_entries";
    check_cost = watch Registry.Resolver "batch_check_cost";
    unpopped = watch Registry.Log "unpopped_bytes";
    lag = watch Registry.Storage "lag";
    busy = watch Registry.Storage "busy";
    rate = watch Registry.Ratekeeper "rate";
    fanout = watch Registry.Client "read_fanout";
    fanout_samples = Samples.create ();
    refreshed_at = Float.neg_infinity;
    pending_max = 0;
    start = None;
  }

(* The gauges whose maximum over the phase is reported. *)
let maxed t = [ t.queue_depth; t.inflight; t.history; t.check_cost; t.unpopped; t.lag; t.busy ]
let watches t = t.rate :: t.fanout :: maxed t

let refresh t =
  let entries = Registry.entries (Cluster.metrics t.cluster) in
  List.iter
    (fun w ->
      w.cells <-
        List.filter_map
          (fun ((k : Registry.key), cell) ->
            match cell with
            | Registry.Gauge_cell r when k.Registry.k_role = w.role && k.Registry.k_metric = w.metric ->
                Some (k.Registry.k_process, r)
            | _ -> None)
          entries)
    (watches t);
  t.refreshed_at <- Engine.now ()

let observe w v =
  if v > w.hi then w.hi <- v;
  if v < w.lo then w.lo <- v

(* Called when one of the benchmark's transactions completes. *)
let sample t =
  if Engine.now () -. t.refreshed_at >= 1.0 then refresh t;
  List.iter (fun w -> List.iter (fun (_, r) -> observe w !r) w.cells) (maxed t);
  (* Only the newest Ratekeeper steers admission; older generations' cells
     keep their last value. *)
  (match List.rev t.rate.cells with (_, r) :: _ -> observe t.rate !r | [] -> ());
  t.pending_max <- max t.pending_max (Engine.pending_tasks ())

(* Called when a range read completes: the mean in-flight width over the
   clients that have issued range reads. *)
let sample_fanout t =
  if Engine.now () -. t.refreshed_at >= 1.0 then refresh t;
  let active = List.filter (fun (_, r) -> !r > 0.0) t.fanout.cells in
  if active <> [] then
    Samples.add t.fanout_samples
      (List.fold_left (fun a (_, r) -> a +. !r) 0.0 active /. float_of_int (List.length active))

let counters =
  [
    ("resolver.txns_checked", Registry.Resolver, "txns_checked");
    ("resolver.conflicts", Registry.Resolver, "conflicts");
    ("ratekeeper.throttles", Registry.Ratekeeper, "throttles");
    ("client.read_failovers", Registry.Client, "read_failovers");
  ]

let read_counters t =
  let reg = Cluster.metrics t.cluster in
  List.map (fun (name, role, metric) -> (name, Registry.sum_counter reg ~role metric)) counters

let cpu_by_pid t = List.map (fun p -> (p.Process.pid, p.Process.cpu_used)) (processes t.cluster)

(* Role CPU seconds and the registry roll-up, for a phase-boundary mark in
   the trace file. *)
let snapshot t =
  let procs = processes t.cluster in
  let cpu =
    List.map
      (fun (role, prefix) ->
        ( role,
          Json.Num
            (List.fold_left (fun a p -> a +. p.Process.cpu_used) 0.0 (with_prefix prefix procs)) ))
      role_prefixes
  in
  let registry =
    try Json.parse (Fdb_obs.Rollup.json_of_doc (Cluster.status_doc t.cluster))
    with Json.Parse_error _ -> Json.Null
  in
  Json.Obj [ ("cpu_s", Json.Obj cpu); ("registry", registry) ]

let begin_phase t =
  refresh t;
  List.iter
    (fun w ->
      w.hi <- Float.neg_infinity;
      w.lo <- Float.infinity)
    (watches t);
  t.pending_max <- 0;
  t.start <-
    Some
      {
        ps_time = Engine.now ();
        ps_cpu = cpu_by_pid t;
        ps_counters = read_counters t;
        ps_disk = Cluster.log_bytes t.cluster;
        ps_epoch = max_epoch t.cluster;
        ps_trace_events = List.length (Trace.events ());
      }

let finite_or_zero x = if Float.is_finite x then x else 0.0

let merged_p99_ms t role metric =
  let merged = Fdb_util.Histogram.create () in
  List.iter
    (fun (_, h) -> Fdb_util.Histogram.merge_into ~dst:merged h)
    (Registry.histograms (Cluster.metrics t.cluster) ~role metric);
  Fdb_util.Histogram.percentile merged 99.0 *. 1e3

(* Per-layer metrics over the phase that [begin_phase] opened. [txns] is
   the number of transactions the phase offered and [user_bytes] the key
   and value bytes its committed transactions wrote. *)
let end_phase t ~txns ~user_bytes =
  match t.start with
  | None -> []
  | Some s ->
      let dt = Float.max 1e-9 (Engine.now () -. s.ps_time) in
      let procs = processes t.cluster in
      let utils prefix =
        List.map
          (fun p ->
            let before = Option.value (List.assoc_opt p.Process.pid s.ps_cpu) ~default:0.0 in
            Float.max 0.0 (p.Process.cpu_used -. before) /. dt)
          (with_prefix prefix procs)
      in
      let max_of = List.fold_left Float.max 0.0 in
      let sum_of = List.fold_left ( +. ) 0.0 in
      let storage = utils "storage-" in
      let counters_now = read_counters t in
      let delta name = List.assoc name counters_now - List.assoc name s.ps_counters in
      let per_txn x = if txns = 0 then 0.0 else x /. float_of_int txns in
      let checked = delta "resolver.txns_checked" in
      let hi w = finite_or_zero w.hi in
      [
        ("client.read_failovers", float_of_int (delta "client.read_failovers"));
        ("client.range_fanout", Samples.mean t.fanout_samples);
        ("proxy.grv_p99_ms", merged_p99_ms t Registry.Proxy "grv_latency");
        ("proxy.commit_p99_ms", merged_p99_ms t Registry.Proxy "commit_latency");
        ("proxy.resolve_p99_ms", merged_p99_ms t Registry.Proxy "commit_resolve_latency");
        ("proxy.logpush_p99_ms", merged_p99_ms t Registry.Proxy "commit_logpush_latency");
        ("proxy.queue_depth_max", hi t.queue_depth);
        ("proxy.inflight_batches_max", hi t.inflight);
        ("proxy.cpu_util_max", max_of (utils "proxy-"));
        ("sequencer.cpu_util", sum_of (utils "sequencer"));
        ("sequencer.epochs", float_of_int (max_epoch t.cluster - s.ps_epoch));
        ("resolver.cpu_util", sum_of (utils "resolver-"));
        ( "resolver.conflict_frac",
          if checked = 0 then 0.0
          else float_of_int (delta "resolver.conflicts") /. float_of_int checked );
        ("resolver.history_entries_max", hi t.history);
        ("resolver.batch_check_cost_max", hi t.check_cost);
        ("log.cpu_util_max", max_of (utils "tlog-"));
        ("log.append_p99_ms", merged_p99_ms t Registry.Log "append_latency");
        ("log.unpopped_mb_max", hi t.unpopped /. 1048576.0);
        ("storage.cpu_util_max", max_of storage);
        ( "storage.cpu_util_mean",
          if storage = [] then 0.0 else sum_of storage /. float_of_int (List.length storage) );
        ("storage.read_p99_ms", merged_p99_ms t Registry.Storage "read_latency");
        ("storage.lag_max_s", hi t.lag);
        ("storage.busy_max_s", hi t.busy);
        ("ratekeeper.rate_min_tps", finite_or_zero t.rate.lo);
        ("ratekeeper.throttles", float_of_int (delta "ratekeeper.throttles"));
        ( "sim.trace_events_per_txn",
          per_txn (float_of_int (List.length (Trace.events ()) - s.ps_trace_events)) );
        ( "sim.disk_bytes_per_user_byte",
          if user_bytes = 0 then 0.0
          else (Cluster.log_bytes t.cluster -. s.ps_disk) /. float_of_int user_bytes );
        ("sim.pending_tasks_max", float_of_int t.pending_max);
      ]
