(** Deployment context threaded through every role: one per cluster.

    Plays the part of FDB's cluster file plus compile-time knowledge: the
    network handle, the configuration (knobs included), and the well-known
    endpoints that survive reboots (coordinators, worker agents, storage
    servers). Role endpoints that change each epoch (proxies, resolvers,
    log servers) are NOT here — they travel through recruitment messages
    and the coordinated state, as in the paper. *)

type t = {
  net : Message.envelope Fdb_sim.Network.t;
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
  'r Message.req ->
  'r Fdb_sim.Future.t
(** Send [req] to endpoint [ep] and wait for its answer, of the type the
    request names. Fails with [Error.Fdb e] when the handler answers
    [Error e], and with {!Fdb_sim.Engine.Timed_out} when no answer comes
    (see {!Fdb_sim.Network.call}). *)

val send : t -> ?bytes:int -> from:Fdb_sim.Process.t -> int -> unit Message.req -> unit
(** One-way, best-effort delivery of a [unit req]: no answer comes back,
    and a handler error is only traced. *)

type handler = { handle : 'r. 'r Message.req -> ('r, Error.t) result Fdb_sim.Future.t }
(** A role's request handler. [Ok v] answers [v]; [Error e] answers an
    error the caller's {!rpc} raises as [Error.Fdb e]. A handler future
    that fails (or a handler that raises) sends nothing: the network
    traces [rpc_handler_error] and the caller times out. *)

val serve : t -> int -> Fdb_sim.Process.t -> handler -> unit
(** Install [handler] for endpoint [ep], owned by [proc]'s current
    incarnation: {!rpc} requests get their answer, {!send} messages none. *)

val ping : t -> from:Fdb_sim.Process.t -> int -> bool Fdb_sim.Future.t
(** Liveness probe of the Ratekeeper, the DataDistributor or a storage
    server: [Ping] to [ep] with a {!Params.heartbeat_timeout} timeout;
    true only when the role answers [Ok ()], false on an error answer or
    a timeout. Never fails. *)

val wait_failure :
  t -> from:Fdb_sim.Process.t -> int -> 'r Message.req -> 'r Fdb_sim.Future.t
(** A generation's long-poll on one of its roles ([Wait_failure], or the
    sequencer's [Seq_status]; see {!Failure_watch}): an {!rpc} whose
    timeout is {!Params.heartbeat_interval} plus
    {!Params.heartbeat_timeout}. It answers after the interval while the
    role lives, and fails as soon as the role ends ([Wrong_epoch]) or its
    process dies on a live machine (a reset call). A down machine is
    silent, so only the timeout ends the poll, 1.0–1.25 s after the
    fault. *)

val paxos_transport : t -> from:Fdb_sim.Process.t -> Fdb_paxos.Wire.transport
(** Coordinator transport for Paxos clients running on [from]. *)

val proposer_id : Fdb_sim.Process.t -> int
(** Unique Paxos proposer identity for a process. *)
