(** Deployment factory: builds a whole simulated FDB cluster (paper
    Figure 1) inside the running simulation engine.

    Creates machines with disks, coordinator processes, storage server
    processes, and worker agents; the control plane then elects a
    ClusterController, which recruits the first transaction system
    generation. Also mints client handles on their own machines and
    exposes the machine list for fault injection. *)

type t

val create : ?config:Config.t -> unit -> t
(** Must be called inside {!Fdb_sim.Engine.run}. *)

val context : t -> Context.t

val wait_ready : ?timeout:float -> t -> unit Fdb_sim.Future.t
(** Resolve once a transaction system has completed recovery and is
    accepting commits (default timeout 60 simulated seconds). *)

val client : t -> name:string -> Client.db
(** A new client on a fresh machine (clients are not fault-injection
    targets unless you include their machines explicitly). *)

val worker_machines : t -> Fdb_sim.Process.machine array
(** The database machines — the fault injector's target list. *)

val current_epoch : t -> Types.epoch Fdb_sim.Future.t
(** Ask the control plane for the current generation (for tests). *)

val log_bytes : t -> float
(** Total bytes written to all machine disks (throughput accounting). *)

val metrics : t -> Fdb_obs.Registry.t
(** The cluster-wide metrics registry every role publishes into. *)

val status_doc : t -> Fdb_obs.Rollup.doc
(** Aggregate the registry into a per-role status document right now. *)
