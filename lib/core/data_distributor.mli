(** The DataDistributor: storage health monitoring and active data
    distribution (paper §2.3.1, §2.5).

    Watches every StorageServer and tracks per-team health (published as
    [unhealthy_teams] / [data_loss_risk] gauges on the metrics plane).
    While the cluster's [Context.dd_movement] switch is on it also
    rebalances: splits shards whose size or traffic exceed the thresholds
    of the cluster's [Config.dd_policy]
    (split point = median-by-bytes from a team member), merges cold
    adjacent same-team shards (never below the deployment's initial shard
    count), and moves shards off the hottest server with the
    fetch-then-cutover protocol described in the implementation header. *)

type t

val create : Context.t -> Fdb_sim.Process.t -> t * int

val move_shard :
  Context.t ->
  proc:Fdb_sim.Process.t ->
  db:Client.db ->
  lo:string ->
  dst:int list ->
  (unit, string) result Fdb_sim.Future.t
(** Move the shard starting at [lo] to team [dst] end-to-end: begin_move
    (dual-tagging), marker transaction + readable-snapshot wait, parallel
    newcomer fetches, then commit_move — aborting the move on any failure.
    Standalone so test harnesses (the swarm's mover job) can drive movement
    without a DataDistributor instance. *)
