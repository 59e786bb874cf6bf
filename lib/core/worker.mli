(** The worker agent: one per machine, hosting whatever roles the control
    plane recruits onto it.

    Handles [Recruit_*] by creating a fresh process (one core per role, as
    FDB deploys) running the requested role, campaigns in the
    ClusterController election when the machine is a candidate, and
    forwards [Cc_get_state] to a locally running ClusterController.
    Re-registers itself after machine reboots. *)

type host = {
  h_machine : Fdb_sim.Process.machine;
  h_disks : Fdb_sim.Disk.t array;
}

val create : Context.t -> host -> machine_id:int -> unit
(** Build the worker process on the host and start it (must run inside a
    simulation). *)
