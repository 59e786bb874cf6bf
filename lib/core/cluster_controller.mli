(** The ClusterController: elected singleton that recruits and supervises
    the other singletons (paper §2.3.1).

    Runs inside the worker that won the coordinator election. Recruits a
    Ratekeeper, a DataDistributor and a Sequencer; holds a long-poll on
    the Sequencer ([Seq_status], see {!Failure_watch}) and, as soon as the
    poll fails, retires its proxies and recruits a replacement (triggering
    a §2.4.4 recovery).
    Also answers [Cc_get_state] so clients can find the current proxies,
    holding the answer while a recovery runs. Publishes the
    [recovery_duration] histogram (failure declared to new generation
    recovered) and the [last_recovery_epoch] / [last_recovery_duration]
    gauges. *)

type t

val start : Context.t -> Fdb_sim.Process.t -> t
(** Begin supervising (call on winning the election). *)

val stop : t -> unit
(** Step down (lease lost). *)

val await_state : t -> Message.cc_state Fdb_sim.Future.t
(** The snapshot [Cc_get_state] answers, once no recovery is running:
    while one is, the answer waits until the new generation has recovered,
    or at most 0.75 s (then it reports the recovery still running). *)

val note_recovered :
  t ->
  sequencer:int ->
  epoch:Types.epoch ->
  proxies:int list ->
  logs:(int * int) list ->
  unit
(** The sequencer at endpoint [sequencer] finished its recovery (its
    [Cc_recovered] notice). Ignored unless it is the current sequencer. *)
