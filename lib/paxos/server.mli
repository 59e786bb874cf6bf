(** Coordinator-side Paxos acceptor state, durable on a simulated disk.

    Each coordinator hosts a set of named registers; promises and accepted
    values are persisted (and synced) {e before} replying, as Disk Paxos
    requires — a coordinator that reboots honours promises it made in a
    previous incarnation. *)

type t

val recover : disk:Fdb_sim.Disk.t -> file:string -> unit -> t Fdb_sim.Future.t
(** Load acceptor state from disk (empty on first boot / after data loss). *)

val handle : t -> Wire.request -> Wire.response Fdb_sim.Future.t
(** Process one request, persisting state changes before the reply. *)
