(** The ClusterController: elected singleton that recruits and supervises
    the other singletons (paper §2.3.1).

    Runs inside the worker that won the coordinator election. Recruits a
    Ratekeeper, a DataDistributor and a Sequencer; holds a long-poll on
    the Sequencer ([Seq_status], see {!Failure_watch}) and, as soon as the
    poll fails, retires its proxies and recruits a replacement (triggering
    a §2.4.4 recovery).
    Also answers [Cc_get_state], each client's long-poll for the current
    proxies, the moment a new generation has recovered. Publishes the
    [recovery_duration] histogram (failure declared to new generation
    recovered) and the [last_recovery_epoch] / [last_recovery_duration]
    gauges. *)

type t

val start : Context.t -> Fdb_sim.Process.t -> t
(** Begin supervising (call on winning the election). *)

val stop : t -> unit
(** Step down (lease lost). *)

val get_state :
  t -> known:Types.epoch -> (Message.cc_state, Error.t) result Fdb_sim.Future.t
(** A client's [Cc_get_state] poll. Answered at once when the current
    generation has recovered and its epoch is not [known]; otherwise held
    until a generation recovers, or for {!Params.heartbeat_interval}, and
    then answered with the state as it stands. A deposed controller answers
    its held polls [Wrong_epoch]. *)

val note_recovered :
  t ->
  sequencer:int ->
  epoch:Types.epoch ->
  proxies:int list ->
  logs:(int * int) list ->
  unit
(** The sequencer at endpoint [sequencer] finished its recovery (its
    [Cc_recovered] notice). Ignored unless it is the current sequencer. *)
