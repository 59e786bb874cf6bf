(** Simulated processes and machines.

    A {e machine} models a physical host in a datacenter and rack (the fault
    domains of paper §2.5); a {e process} models one database server process
    pinned to a core of that machine (the paper deploys one process per
    core). Kill/reboot invalidates in-flight work via incarnation numbers:
    every scheduled task captures the incarnation of its owning process and
    is dropped by the engine if the process has died or rebooted since. *)

type machine = Run.machine = {
  machine_id : int;
  dc : string;  (** datacenter / availability-zone fault domain *)
  rack : string;  (** rack fault domain within the DC *)
  mutable machine_processes : t list;
}

and t = Run.process = {
  pid : int;
  name : string;  (** human-readable role name, for traces *)
  machine : machine;
  mutable alive : bool;
  mutable incarnation : int;
  mutable cpu_busy_until : float;
  mutable cpu_used : float;  (** accumulated service time, for utilization *)
  mutable boot : unit -> unit;  (** run after a reboot to restart roles *)
  mutable reboot_hooks : (unit -> unit) list;
      (** run on kill/reboot, e.g. to drop unsynced disk writes *)
}

val fresh_machine : ?dc:string -> ?rack:string -> int -> machine
(** [fresh_machine id] makes a machine with no processes yet. *)

val create : ?name:string -> machine -> t
(** Make a live process on [machine] (registers itself with the machine).
    Pids count from 1 in each {!Engine.run}, so reruns of the same seed
    within one OS process assign identical pids — required for
    bit-identical metric dumps (the registry keys cells by pid). *)

val is_live : t -> int -> bool
(** [is_live p inc] — alive and still in incarnation [inc]? *)

val machine_up : machine -> bool
(** Is any of the machine's processes alive? A machine with none is down. *)

val on_reboot : t -> (unit -> unit) -> unit
(** Register a cleanup hook run when the process dies or reboots. *)

val mark_dead : t -> unit
(** Flag dead and run reboot hooks. (Scheduling of the reboot itself is the
    engine's job — see {!Engine.kill} / {!Engine.reboot}.) *)

val mark_rebooted : t -> unit
(** Bump incarnation and flag alive again; resets the CPU queue. *)
