(** Cluster status report, in the spirit of `fdbcli status` /
    [\xff\xff/status/json]: control-plane generation and role placement
    gathered over RPC, plus the data plane — storage health, transaction
    counters, latency percentiles, and the ratekeeper budget — sourced from
    the shared {!Fdb_obs} metrics registry. *)

type t = {
  st_epoch : Fdb_core.Types.epoch;
  st_recovered : bool;
  st_proxies : int;
  st_logs : int;
  st_storage_total : int;
  st_storage_responsive : int;
  st_max_lag : float;  (** seconds, worst responsive storage server *)
  st_max_window_events : int;
  st_storage_shards_min : int;  (** fewest shards any storage server serves *)
  st_storage_shards_max : int;  (** most shards any storage server serves *)
  st_grv_served : int;
  st_commit_attempts : int;
  st_commits : int;
  st_conflicts : int;
  st_rate : float;  (** current ratekeeper budget, tps *)
  st_grv_p50 : float;  (** seconds *)
  st_grv_p99 : float;
  st_commit_p50 : float;
  st_commit_p99 : float;
  st_dd_recruited : bool;  (** a DataDistributor is running *)
  st_unhealthy_teams : int;  (** teams below full replication (DD gauge) *)
  st_data_loss_risk : bool;  (** some team has zero responsive replicas *)
  st_last_recovery_epoch : Fdb_core.Types.epoch;
      (** generation the last fault-triggered recovery produced; 0 when
          there has been none *)
  st_last_recovery_s : float;
      (** that recovery's duration: the ClusterController declaring the
          sequencer failed to the new generation recovering *)
}

val gather : Fdb_core.Cluster.t -> t Fdb_sim.Future.t
(** One status snapshot (never fails; unreachable roles count as absent). *)

val pp : Format.formatter -> t -> unit
(** Human-readable multi-line report. *)

val to_json : t -> Fdb_obs.Rollup.doc -> string
(** Machine-readable status document: the cluster summary plus the full
    per-role metrics roll-up. Deterministic — two runs of the same seed
    emit identical bytes. *)
