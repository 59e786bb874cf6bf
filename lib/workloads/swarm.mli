(** Swarm testing (paper §4): one fully randomized simulation run.

    Each run draws a random cluster size and configuration, random workload
    mix, random fault-injection parameters, and a random subset of
    buggification points (via the engine's buggify mode), runs the
    workloads under the fault storm, heals the world, and then evaluates
    every oracle: bank invariant, ring invariant, serializable history,
    replica consistency, and recoverability (the cluster accepts
    transactions again). Deterministic in the seed — a failing seed replays
    bit-identically. *)

type report = {
  seed : int64;
  machines : int;
  storage_per_machine : int;
  epochs : int;  (** generations consumed (>= 1; > 1 means recoveries ran) *)
  transfers : int;
  rotations : int;
  soup_committed : int;
  dd_moves : int;  (** shard moves committed by the swarm's mover job *)
  layer_ops : int;
      (** committed layer operations (record upserts/deletes, queue
          enqueues/claims) by the {!Layer_soak} job; 0 when layers are off *)
  shard_checksum : int64;
      (** {!Fdb_core.Shard_map.history_checksum} at run end: fingerprint of
          the full split/merge/move schedule *)
  oracle_failures : string list;  (** empty = the run passed *)
  buggify_points : string list;  (** fault-injection points that fired *)
  trace_checksum : int64;
      (** {!Fdb_sim.Engine.last_run_checksum} of the run: FNV-1a over every
          executed event. Equal seeds must yield equal checksums. *)
  lifecycle : Fdb_sim.Future.Lifecycle.report;
      (** {!Fdb_sim.Engine.last_run_lifecycle} of the run: the promise
          sanitizer's leak / double-resolve / detach-failure tallies.
          [fdb_sim swarm --check-leaks] fails the run on a nonzero
          {!Fdb_sim.Future.Lifecycle.total_leaks}. *)
}

val run_one :
  ?buggify:bool ->
  ?duration:float ->
  ?dd_movement:bool ->
  ?layers:bool ->
  seed:int64 ->
  unit ->
  report
(** Run one randomized simulation (NOT inside an existing engine run).
    [dd_movement] (default false) enables the DataDistributor's rebalancer
    with aggressive thresholds {e and} a mover job that fires random
    splits, merges and fetch-then-cutover moves throughout the run, then
    quiesces movement before the oracles. [layers] (default false) adds
    the {!Layer_soak} job — directory-housed record stores with
    transactional indexes plus a watch-driven queue — and its
    index-consistency and exactly-once oracles. With [layers] off the run
    is byte-identical to a build without the layer ecosystem. *)

val check_determinism :
  ?buggify:bool ->
  ?duration:float ->
  ?dd_movement:bool ->
  ?layers:bool ->
  seed:int64 ->
  unit ->
  (report, int64 * int64) result
(** Run the seed twice and compare trace checksums — and, with movement
    enabled, shard-map history checksums, so a diverging shard-move
    schedule is caught even when the event streams happen to agree:
    [Ok report] if the runs match, [Error (first, second)] otherwise — the
    paper's double-run nondeterminism detector. *)

val pp_report : Format.formatter -> report -> unit
