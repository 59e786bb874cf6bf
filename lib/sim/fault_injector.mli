(** Randomized fault schedules (paper §4 "Fault injection").

    Drives process-, machine-, rack- and datacenter-level fail-stop kills
    and reboots, network partitions and clogging against a set of
    machines, with rates tuned (like the paper says) to keep the system in
    interesting states rather than permanently flattened. A kill event
    that is neither rack- nor datacenter-wide reboots one live process of
    its machine instead of the whole machine with probability 0.3. All
    randomness comes from the engine's deterministic RNG. *)

type config = {
  duration : float;  (** how long to keep injecting, in simulated seconds *)
  kill_mean_interval : float;  (** mean time between kill events; 0 = off *)
  reboot_min : float;  (** min downtime after a kill *)
  reboot_max : float;  (** max downtime after a kill *)
  rack_kill_prob : float;  (** a kill event takes the whole rack *)
  dc_kill_prob : float;  (** ... or the whole datacenter *)
  partition_mean_interval : float;  (** mean time between partitions; 0 = off *)
  partition_duration : float;
  clog_mean_interval : float;  (** mean time between clog events; 0 = off *)
  clog_duration : float;
}

val default : config
(** Moderate chaos: kills every ~15 s, partitions every ~20 s, clogs every
    ~10 s, for 120 s. *)

val kill_machine : Process.machine -> unit
(** Fail-stop every process on the machine, without scheduling a reboot. *)

val reboot_machine : ?delay:float -> Process.machine -> unit
(** Fail-stop (if alive) and restart every process on the machine after
    [delay] (default 0.5 s), re-running each process's boot thunk. *)

val run :
  net:'m Network.t ->
  machines:Process.machine array ->
  config ->
  unit Future.t
(** Start the injection loops; the future resolves after [config.duration]
    with all partitions healed and all machines scheduled back up. *)
