(** Deterministic structured event trace.

    Roles emit trace events (like FDB's TraceEvent); tests compare traces
    across runs to assert determinism, and the CLI can dump them for
    debugging a failing seed. Collection is cheap and always on. *)

type event = { te_time : float; te_name : string; te_fields : (string * string) list }

val reset : unit -> unit
(** Drop all collected events (called by {!Engine.run}). The simulated
    clock source is also re-armed. *)

val set_clock : (unit -> float) -> unit
(** Install the time source (the engine installs its virtual clock). *)

val set_observer : (string -> unit) -> unit
(** Install a hook called with every emitted event name. The engine uses
    it to fold event kinds into its run checksum; there is at most one
    observer. *)

val clear_observer : unit -> unit

val emit : string -> (string * string) list -> unit
(** Record one event at the current time. *)

val events : unit -> event list
(** All events in emission order. *)

val dump : Format.formatter -> unit -> unit
(** Pretty-print the whole trace. *)

val count : string -> int
(** Number of events with the given name — used by tests as the paper's
    conditional-coverage macros ("did this rare path run?"). *)
