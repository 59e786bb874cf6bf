(** Deployment context threaded through every role: one per cluster.

    Plays the part of FDB's cluster file plus compile-time knowledge: the
    network handle, the configuration (knobs included), and the well-known
    endpoints that survive reboots (coordinators, worker agents, storage
    servers). Role endpoints that change each epoch (proxies, resolvers,
    log servers) are NOT here — they travel through recruitment messages
    and the coordinated state, as in the paper. *)

type t = {
  net : Message.t Fdb_sim.Network.t;
  config : Config.t;
  shard_map : Shard_map.t;
  coordinator_eps : int list;  (** the "cluster file" *)
  worker_eps : int array;  (** worker agent endpoint, by machine index *)
  storage_eps : int array;  (** storage server endpoint, by server id *)
  metrics : Fdb_obs.Registry.t;
      (** cluster-wide metrics plane: every role publishes here *)
  mutable dd_movement : bool;
      (** whether the DataDistributor splits, merges and moves shards.
          Off when {!Cluster.create} returns, so runs that leave it alone
          keep byte-identical schedules; a run may flip it at any time
          (e.g. to quiesce movement before its oracles). It outlives any
          one DataDistributor, which the CC may re-recruit. *)
}

val rpc :
  t ->
  ?timeout:float ->
  ?bytes:int ->
  from:Fdb_sim.Process.t ->
  int ->
  Message.t ->
  Message.t Fdb_sim.Future.t
(** {!Fdb_sim.Network.call} specialized to the cluster message type; a
    [Reject e] reply is raised as [Error.Fdb e] so callers pattern-match
    only success shapes. *)

val ping : t -> from:Fdb_sim.Process.t -> int -> bool Fdb_sim.Future.t
(** Liveness probe: [Seq_ping] to [ep] with a {!Params.heartbeat_timeout}
    timeout; true only on an [Ok_reply], false on any other reply, a
    rejection or a timeout. Never fails. *)

val paxos_transport : t -> from:Fdb_sim.Process.t -> Fdb_paxos.Wire.transport
(** Coordinator transport for Paxos clients running on [from]. *)

val proposer_id : Fdb_sim.Process.t -> int
(** Unique Paxos proposer identity for a process. *)
