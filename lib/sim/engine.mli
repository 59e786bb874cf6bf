(** The deterministic discrete-event scheduler (paper §4, Figure 6).

    One engine drives one simulation. All database code runs inside
    {!run}; virtual time advances only when the event queue says so, so a
    run is a pure function of its seed, and can fast-forward through idle
    stretches arbitrarily faster than real time. Each {!run} creates and
    owns a fresh {!Run.t} — the clock, task queue, RNG, checksum, trace,
    Buggify and sanitizer state — and installs it in the one slot
    {!Run.latest}, where it stays readable after the run. Simulations
    cannot be nested, mirroring the single-simulator-process design of
    FDB. *)

exception Deadlock
(** Raised by {!run} when the event queue empties while the root future is
    still pending — i.e. the simulated system can make no further progress. *)

exception Timed_out
(** Raised into futures by {!timeout} and by RPC timeouts. *)

exception Killed
(** Raised by blocking primitives when their owning process was killed. *)

val run :
  ?seed:int64 ->
  ?max_time:float ->
  ?buggify:bool ->
  ?buggify_active:string list ->
  (unit -> 'a Future.t) ->
  'a
(** [run f] creates a fresh run record, runs [f ()] and processes events until
    the returned future resolves. Raises {!Deadlock} on quiescence, and
    [Failure] if [max_time] (default 1e7 simulated seconds) is exceeded.
    [buggify] enables the {!Buggify} fault-injection points for this run.
    The points named in [buggify_active] (default none) are activated for
    the whole run instead of by a seeded draw, so a test can exercise a
    point whatever order the run consults points in; they still fire only
    when [buggify] is set, each with its own local probability. *)

val now : unit -> float
(** Current virtual time in seconds. *)

val schedule : ?after:float -> ?process:Process.t -> (unit -> unit) -> unit
(** Enqueue a task [after] seconds from now (default 0). The task is
    dropped, not run, if [process] (default: the current process context)
    has died or rebooted by dispatch time. *)

val sleep : float -> unit Future.t
(** Resolve after the given virtual delay. Never resolves if the owning
    process dies first. *)

val sleep_until : float -> unit Future.t

val spawn : ?process:Process.t -> string -> (unit -> unit Future.t) -> unit
(** [spawn name f] starts a detached actor. If its future fails the error
    is recorded in the trace (actors own their error handling). *)

val timeout : float -> 'a Future.t -> 'a Future.t
(** Fail with {!Timed_out} if the future is still pending after the delay. *)

val fork_rng : unit -> Fdb_util.Det_rng.t
(** Derive an independent deterministic RNG stream from the engine's root. *)

val random_float : float -> float
val random_int : int -> int
val chance : float -> bool
(** Draws from the engine's root RNG (for infrastructure-level jitter). *)

val with_process : Process.t -> (unit -> 'a) -> 'a
(** Run [f] with the current-process context set (tasks scheduled inside
    are owned by that process). *)

val cpu : Process.t -> float -> unit Future.t
(** [cpu p dt] models [dt] seconds of CPU work on [p]'s core: an FCFS
    queue — the future resolves once all previously queued work plus [dt]
    has elapsed. This is what makes saturation experiments (Figures 8/9)
    exhibit queueing delay. *)

val kill : Process.t -> unit
(** Fail-stop the process: reboot hooks run, in-flight tasks are dropped. *)

val reboot : Process.t -> ?delay:float -> unit -> unit
(** Kill (if alive) and schedule the process to come back after [delay]
    (default 0.5 s), running its [boot] thunk in the new incarnation. *)

val is_running : unit -> bool
(** True between the start and end of {!run} (some modules fall back to
    non-simulated behaviour outside a run, e.g. in bechamel microbenches). *)

val pending_tasks : unit -> int
(** Number of queued events (diagnostics). *)

val last_run_checksum : unit -> int64
(** The trace checksum of the most recent {!run} (including runs that
    ended in an exception): an FNV-1a64 over every executed event, each
    dispatched task's (time, pid, seq) plus every {!Trace.emit} kind.
    Identical seeds must yield identical checksums — the dynamic backstop
    behind the determinism lint (see DESIGN.md). *)

val last_run_lifecycle : unit -> Future.Lifecycle.report
(** Promise-lifecycle report of the most recent {!run}, stored when it
    finishes (empty while it is still going): labeled promises still
    pending with waiters on live processes (leaked wakeups),
    double-resolve tallies, and detached-future failures. The runtime
    residue-catcher behind lint rule R6; [fdb_sim swarm --check-leaks]
    turns a nonzero leak count into a test failure. *)
