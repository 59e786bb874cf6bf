(** The held side of a long-poll: FDB's waitFailure endpoint.

    A proxy, resolver or LogServer holds each [Wait_failure] it is sent,
    the sequencer each [Seq_status], and the ClusterController each
    client's [Cc_get_state] that finds no newer generation. A held poll is
    answered [Ok] after {!Params.heartbeat_interval} while the role lives,
    at once by {!answer_all}, or with [Wrong_epoch] the moment the role
    ends ({!fail}). A process death needs no call here: the network resets
    every call open to a dead process one network delay later. The caller
    re-asks at once (see {!Context.wait_failure}), so its monitor learns of
    a role's end when it happens, not at some later poll. *)

type 'r t

val create : Fdb_sim.Process.t -> 'r t
(** No poll held; answers are scheduled on this process. *)

val hold : 'r t -> (unit -> 'r) -> ('r, Error.t) result Fdb_sim.Future.t
(** Hold one poll. [answer ()] builds its [Ok] reply when the interval
    ends, unless {!answer_all} or {!fail} answered it first. *)

val answer_all : 'r t -> 'r -> unit
(** What the polls wait for has happened: answer every held poll [Ok] with
    this reply now. *)

val fail : 'r t -> unit
(** The role has ended: answer every held poll [Wrong_epoch] now. Polls
    that arrive later are the role's own to refuse. *)
