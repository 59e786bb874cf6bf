(** Single-threaded promises — the analogue of the paper's Flow futures.

    A future is resolved at most once, with a value or an exception.
    Callbacks run synchronously, in registration order, on the stack of
    whoever resolves the promise; all asynchrony (and hence all scheduling
    nondeterminism) lives in {!Engine}, never here. *)

type 'a t
(** A value of type ['a] that may not have arrived yet. *)

type 'a promise
(** The write end of a future. *)

exception Cancelled of string
(** Carried by futures resolved by cancellation rather than by their
    producer: {!race} losers, and anything an actor cancels explicitly.
    Delivered as an ordinary [Error] resolution — traced, never raised on
    the canceller's stack. *)

val make : ?label:string -> unit -> 'a t * 'a promise
(** A fresh pending future and its resolver. [label] names the creation
    site for the lifecycle sanitizer: labeled promises still pending (with
    waiters, on a live process) at simulation end are reported as leaked
    wakeups by {!Engine.last_run_lifecycle}. Promises whose resolution is
    guaranteed by a scheduled task (sleeps, timers) stay unlabeled. *)

val return : 'a -> 'a t
(** An already-fulfilled future. *)

val fail : exn -> 'a t
(** An already-failed future. *)

val fulfill : 'a promise -> 'a -> unit
(** Resolve with a value. Raises [Invalid_argument] if already resolved. *)

val break : 'a promise -> exn -> unit
(** Resolve with an exception. Raises [Invalid_argument] if already resolved. *)

val try_fulfill : 'a promise -> 'a -> bool
(** Like {!fulfill} but reports [false] instead of raising when the future is
    already resolved (races between a reply and a timeout are normal).
    While the lifecycle sanitizer is enabled, a [false] on a labeled
    promise is tallied in the run report's double-resolve table. *)

val try_break : 'a promise -> exn -> bool
(** Like {!break}, non-raising. *)

val is_resolved : 'a t -> bool
val is_pending : 'a t -> bool

val has_waiters : 'a t -> bool
(** [true] when the future is pending and at least one callback is
    registered — somebody is blocked on it. *)

val label : 'a t -> string
(** The creation-site label ("" when unlabeled). *)

val peek : 'a t -> 'a option
(** The fulfilled value if available now ([None] if pending or failed). *)

val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : 'a t -> ('a -> 'b) -> 'b t

val on_resolve : 'a t -> (('a, exn) result -> unit) -> unit
(** Register a callback for whichever way the future resolves. *)

val catch : (unit -> 'a t) -> (exn -> 'a t) -> 'a t
(** [catch f h] runs [f ()]; if it raises or its future fails, continue
    with [h exn]. *)

val protect : finally:(unit -> unit) -> (unit -> 'a t) -> 'a t
(** [protect ~finally f] runs [finally ()] once [f ()]'s future resolves,
    whether with a value or an exception. *)

val all : 'a t list -> 'a list t
(** Resolves with all results (in input order) once every future fulfills;
    fails as soon as any fails. *)

val all_unit : unit t list -> unit t

val join2 : 'a t -> 'b t -> ('a * 'b) t

val race : 'a t list -> 'a t
(** Resolves like the first of the inputs to resolve. The losers are then
    resolved with {!Cancelled} (a [future_race_loser_cancelled] trace event
    each) instead of being left pending forever — a pending loser is a
    leaked wakeup the lifecycle sanitizer would report at simulation end. *)

val any_exn : exn
(** Exception used by {!race} on an empty list. *)

val race_loser_exn : exn
(** The {!Cancelled} value delivered to {!race} losers. *)

val detach : name:string -> 'a t -> unit
(** The approved fire-and-forget idiom (lint rule R6): drop the value but
    route a failure to a [future_detached_error] trace event naming the
    actor, and tally it in the lifecycle report. Never raises. *)

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
  val ( and* ) : 'a t -> 'b t -> ('a * 'b) t
end

module Lifecycle : sig
  (** The promise-lifecycle sanitizer: runtime backstop behind lint rule
      R6. Enabled by {!Engine.run} for the duration of a simulation; pure
      bookkeeping (no trace events, no scheduling), so it never perturbs a
      run's trace checksum. *)

  type report = {
    lr_created : int;  (** promises created via {!make} while enabled *)
    lr_resolved : int;  (** promises resolved (either way) while enabled *)
    lr_leaked : (string * int) list;
        (** label -> count of labeled promises still pending with waiters
            whose creating process is still live: leaked wakeups. *)
    lr_double_resolved : (string * int) list;
        (** label -> count of [try_fulfill]/[try_break] calls that found
            the promise already resolved. *)
    lr_detach_failures : (string * int) list;
        (** {!detach} name -> failures routed to the trace. *)
  }

  val empty : report
  val total_leaks : report -> int

  val enable : owner:(unit -> (Process.t * int) option) -> unit
  (** Reset and start tracking; [owner] supplies the creating process (and
      incarnation) for each labeled promise — the engine wires its current
      process context in. *)

  val disable : unit -> unit

  val snapshot : unit -> report
  (** The report for the tracking period so far. Leak status is evaluated
      at call time (the engine calls this once, at simulation end). *)
end
