(** Lease-based singleton election over a Paxos register (paper §2.3.1:
    coordinators "select a singleton ClusterController").

    Liveness-oriented: the winner holds a time-based lease it keeps
    renewing; challengers wait the lease out. Like in FDB, brief windows
    with two self-believed leaders are tolerable — real mutual exclusion
    for recovery comes from {!Register.lock_and_read} ballots, not from
    the election. *)

type t

val start :
  Register.t ->
  self:string ->
  ?lease:float ->
  on_elected:(unit -> unit) ->
  on_deposed:(unit -> unit) ->
  unit ->
  t
(** Join the election as candidate [self] (an opaque payload, typically an
    encoded endpoint, that other nodes can read via {!leader}). The
    callbacks fire on each win / loss of leadership. The candidate loop
    runs until {!stop}. Lease defaults to 4 s. *)

val stop : t -> unit
(** Leave the election (e.g. the process is shutting down). *)

val is_leader : t -> bool
(** Current local belief. *)

val leader_via : Wire.transport -> reg:string -> proposer:int -> string option Fdb_sim.Future.t
(** One-shot query: who does a majority currently consider leader? Returns
    the payload if the lease is still current. For non-candidates needing
    to find the ClusterController. *)
