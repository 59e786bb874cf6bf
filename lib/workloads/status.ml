(* Cluster status report in the spirit of `fdbcli status` / `\xff\xff/status/json`.

   The control plane (generation, recruitment, availability) still comes from
   the ClusterController via the coordinators, but the data plane is sourced
   from the shared `Fdb_obs` metrics plane: storage liveness/lag from the
   heartbeat gauges the servers publish, transaction statistics from the proxy
   counters and latency histograms. This replaces the stats RPC scatter the
   old report duplicated with the Ratekeeper. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Registry = Fdb_obs.Registry
module Histogram = Fdb_util.Histogram

type t = {
  st_epoch : Types.epoch;
  st_recovered : bool;
  st_proxies : int;
  st_logs : int;
  st_storage_total : int;
  st_storage_responsive : int;
  st_max_lag : float;
  st_max_window_events : int;
  st_storage_shards_min : int; (* shards served per storage server *)
  st_storage_shards_max : int;
  (* transaction plane, from the metrics registry *)
  st_grv_served : int;
  st_commit_attempts : int;
  st_commits : int;
  st_conflicts : int;
  st_rate : float; (* current ratekeeper budget, tps *)
  st_grv_p50 : float;
  st_grv_p99 : float;
  st_commit_p50 : float;
  st_commit_p99 : float;
  (* data-distribution plane, from the DD's registry gauges *)
  st_dd_recruited : bool;
  st_unhealthy_teams : int;
  st_data_loss_risk : bool;
  (* the last fault-triggered recovery, from the ClusterController's gauges *)
  st_last_recovery_epoch : Types.epoch; (* 0: none yet *)
  st_last_recovery_s : float;
}

let merged_hist reg ~role name =
  let dst = Histogram.create () in
  List.iter
    (fun (_, src) -> Histogram.merge_into ~dst src)
    (Registry.histograms reg ~role name);
  dst

let gather cluster =
  let ctx = Cluster.context cluster in
  let machine = Process.fresh_machine ~dc:"dc1" 960_000 in
  let probe = Process.create ~name:"status-probe" machine in
  (* Control plane: find the ClusterController through the coordinators. *)
  let* cc_state =
    Future.catch
      (fun () ->
        let transport = Context.paxos_transport ctx ~from:probe in
        let* leader =
          Fdb_paxos.Election.leader_via transport ~reg:"cc-leader"
            ~proposer:(Context.proposer_id probe)
        in
        match Option.bind leader int_of_string_opt with
        | Some m when m < Array.length ctx.Context.worker_eps ->
            let+ { Message.st_epoch; st_proxies; st_logs; st_recovered; st_dd } =
              (* No generation has epoch -1: a recovered CC answers at once. *)
              Context.rpc ctx ~timeout:1.0 ~from:probe ctx.Context.worker_eps.(m)
                (Message.Cc_get_state { cg_known = -1 })
            in
            Some
              ( st_epoch, List.length st_proxies, List.length st_logs, st_recovered,
                st_dd <> None )
        | _ -> Future.return None)
      (fun _ -> Future.return None)
  in
  (* Storage plane: the heartbeat gauges every server publishes. *)
  let reg = ctx.Context.metrics in
  let responsive = Storage_server.live_load reg ~now:(Engine.now ()) in
  (* Transaction plane: proxy counters and latency histograms, all epochs. *)
  let grv_h = merged_hist reg ~role:Registry.Proxy "grv_latency" in
  let commit_h = merged_hist reg ~role:Registry.Proxy "commit_latency" in
  let rate =
    List.fold_left (fun a (_, r) -> Float.max a r)
      0.0 (Registry.gauges reg ~role:Registry.Ratekeeper "rate")
  in
  let epoch, proxies, logs, recovered, dd_recruited =
    match cc_state with Some s -> s | None -> (0, 0, 0, false, false)
  in
  (* Data-distribution plane: the DD publishes team health as gauges. *)
  let dd_gauge name =
    Option.value ~default:0.0
      (Registry.gauge_value reg ~role:Registry.Data_distributor ~process:0 name)
  in
  (* Placement skew: shards each storage server serves, from the map. *)
  let shards_per_ss =
    List.init (Array.length ctx.Context.storage_eps) (fun ss ->
        List.length (Shard_map.shards_of_storage ctx.Context.shard_map ss))
  in
  let shards_max = List.fold_left max 0 shards_per_ss in
  (* Each ClusterController that saw a recovery through publishes its last
     one; the newest generation wins. *)
  let last_epoch, last_s =
    List.fold_left
      (fun (e, d) (cc, epoch) ->
        if int_of_float epoch <= e then (e, d)
        else
          ( int_of_float epoch,
            Option.value ~default:0.0
              (Registry.gauge_value reg ~role:Registry.Cluster_controller ~process:cc
                 "last_recovery_duration") ))
      (0, 0.0)
      (Registry.gauges reg ~role:Registry.Cluster_controller "last_recovery_epoch")
  in
  Future.return
    {
      st_epoch = epoch;
      st_recovered = recovered;
      st_proxies = proxies;
      st_logs = logs;
      st_storage_total = Array.length ctx.Context.storage_eps;
      st_storage_responsive = List.length responsive;
      st_max_lag = List.fold_left (fun a (l, _, _) -> Float.max a l) 0.0 responsive;
      st_max_window_events = List.fold_left (fun a (_, w, _) -> max a w) 0 responsive;
      st_storage_shards_min = List.fold_left min shards_max shards_per_ss;
      st_storage_shards_max = shards_max;
      st_grv_served = Registry.sum_counter reg ~role:Registry.Proxy "grv_served";
      st_commit_attempts = Registry.sum_counter reg ~role:Registry.Proxy "commit_attempts";
      st_commits = Registry.sum_counter reg ~role:Registry.Proxy "commits";
      st_conflicts = Registry.sum_counter reg ~role:Registry.Proxy "conflicts";
      st_rate = rate;
      st_grv_p50 = Histogram.percentile grv_h 50.0;
      st_grv_p99 = Histogram.percentile grv_h 99.0;
      st_commit_p50 = Histogram.percentile commit_h 50.0;
      st_commit_p99 = Histogram.percentile commit_h 99.0;
      st_dd_recruited = dd_recruited;
      st_unhealthy_teams = int_of_float (dd_gauge "unhealthy_teams");
      st_data_loss_risk = dd_gauge "data_loss_risk" > 0.0;
      st_last_recovery_epoch = last_epoch;
      st_last_recovery_s = last_s;
    }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>cluster generation : %d (%s)@,\
     transaction system  : %d proxies, %d log servers@,\
     storage servers     : %d/%d responsive@,\
     worst storage lag   : %.1f ms@,\
     mvcc window events  : %d (max per server)@,\
     shards per server   : %d..%d@,\
     workload            : %d grv, %d/%d commits (%d conflicts)@,\
     rate budget         : %.0f tps@,\
     grv latency         : p50 %.2f ms, p99 %.2f ms@,\
     commit latency      : p50 %.2f ms, p99 %.2f ms@,\
     data distribution   : %s, %d unhealthy teams%s@,\
     last recovery       : %s@]"
    t.st_epoch
    (if t.st_recovered then "available" else "recovering")
    t.st_proxies t.st_logs t.st_storage_responsive t.st_storage_total
    (t.st_max_lag *. 1e3) t.st_max_window_events
    t.st_storage_shards_min t.st_storage_shards_max
    t.st_grv_served t.st_commits t.st_commit_attempts t.st_conflicts
    t.st_rate
    (t.st_grv_p50 *. 1e3) (t.st_grv_p99 *. 1e3)
    (t.st_commit_p50 *. 1e3) (t.st_commit_p99 *. 1e3)
    (if t.st_dd_recruited then "recruited" else "not recruited")
    t.st_unhealthy_teams
    (if t.st_data_loss_risk then " (DATA LOSS RISK)" else "")
    (if t.st_last_recovery_epoch = 0 then "none"
     else
       Printf.sprintf "generation %d, %.0f ms" t.st_last_recovery_epoch
         (t.st_last_recovery_s *. 1e3))

(* Machine-readable status document: the cluster summary plus the full
   per-role rollup. Deterministic: sorted keys, canonical float rendering —
   two runs of the same seed emit identical bytes. *)
let to_json t (doc : Fdb_obs.Rollup.doc) =
  let f = Fdb_obs.Rollup.json_float in
  Printf.sprintf
    "{\"cluster\":{\"generation\":%d,\"available\":%b,\"proxies\":%d,\"logs\":%d,\
     \"storage_responsive\":%d,\"storage_total\":%d,\"max_lag_ms\":%s,\
     \"max_window_events\":%d,\"storage_shards_min\":%d,\"storage_shards_max\":%d,\
     \"grv_served\":%d,\"commit_attempts\":%d,\
     \"commits\":%d,\"conflicts\":%d,\"rate_tps\":%s,\
     \"grv_p50_ms\":%s,\"grv_p99_ms\":%s,\"commit_p50_ms\":%s,\"commit_p99_ms\":%s,\
     \"dd_recruited\":%b,\"unhealthy_teams\":%d,\"data_loss_risk\":%b,\
     \"last_recovery_epoch\":%d,\"last_recovery_ms\":%s},\
     \"metrics\":%s}"
    t.st_epoch t.st_recovered t.st_proxies t.st_logs t.st_storage_responsive
    t.st_storage_total
    (f (t.st_max_lag *. 1e3))
    t.st_max_window_events t.st_storage_shards_min t.st_storage_shards_max
    t.st_grv_served t.st_commit_attempts t.st_commits
    t.st_conflicts (f t.st_rate)
    (f (t.st_grv_p50 *. 1e3))
    (f (t.st_grv_p99 *. 1e3))
    (f (t.st_commit_p50 *. 1e3))
    (f (t.st_commit_p99 *. 1e3))
    t.st_dd_recruited t.st_unhealthy_teams t.st_data_loss_risk
    t.st_last_recovery_epoch
    (f (t.st_last_recovery_s *. 1e3))
    (Fdb_obs.Rollup.json_of_doc doc)
