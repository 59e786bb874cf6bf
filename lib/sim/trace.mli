(** Deterministic structured event trace.

    Roles emit trace events (like FDB's TraceEvent); tests compare traces
    across runs to assert determinism, and the CLI can dump them for
    debugging a failing seed. Collection is cheap and always on. The trace
    belongs to the current {!Run.t}: each {!Engine.run} starts an empty
    one, every event kind emitted during the run is folded into the run's
    checksum ({!Engine.last_run_checksum}), and the trace stays readable
    after the run ends. *)

type event = Run.event = { te_time : float; te_name : string; te_fields : (string * string) list }

val emit : string -> (string * string) list -> unit
(** Record one event at the current time. *)

val events : unit -> event list
(** All events in emission order. *)

val dump : Format.formatter -> unit -> unit
(** Pretty-print the whole trace. *)

val count : string -> int
(** Number of events with the given name — used by tests as the paper's
    conditional-coverage macros ("did this rare path run?"). *)
