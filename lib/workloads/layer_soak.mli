(** Layer-ecosystem soak workload for the swarm (paper §4): multi-tenant
    record stores with value / counter / versionstamp indexes, plus a
    watch-driven job queue, all running under the fault storm.

    Both end-of-run oracles are computed from durable state only:

    - {!Fdb_layers.Index.verify} recomputes every tenant's indexes from
      the base records and diffs them against storage.
    - Queue exactly-once: enqueues write a ledger entry (making retries
      after unknown commit results idempotent) and claims {e move} jobs
      into a claimed subspace, so [ledger = claimed ∪ pending] must hold
      exactly and the duplicate-claim subspace must stay empty. *)

type stats = {
  upserts : int;
  deletes : int;
  enqueued : int;
  claimed : int;
  watch_waits : int;  (** times a consumer parked on a signal-key watch *)
  op_failures : int;  (** operations abandoned after retry exhaustion *)
}

type t
(** Handle to a finished soak: store/queue locations plus client-side
    tallies. The oracles never trust the tallies. *)

val run :
  Fdb_core.Cluster.t -> until:float -> rng:Fdb_util.Det_rng.t -> unit -> t Fdb_sim.Future.t
(** Open the directories, run writers / producer / watch-parked consumers
    until [until], broadcast the stop marker, and join the consumers.
    Must run inside an engine with the cluster ready. *)

val ops : t -> int
(** Total committed layer operations — a liveness signal for reports. *)

val check : Fdb_core.Cluster.t -> t -> string list Fdb_sim.Future.t
(** Run both oracles after the cluster has healed; [[]] means every
    layer invariant held. *)
