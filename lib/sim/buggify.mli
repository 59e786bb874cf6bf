(** Buggification points (paper §4).

    [Buggify.on "name"] marks a place where the simulation may inject
    unusual-but-legal behaviour: an early error return, an extra delay, an
    odd tuning value. Like FDB, each named point is independently enabled
    for a given run with probability ~25%; an enabled point then fires on
    each evaluation with its local probability (default 25%). A test can
    name points to activate for its run ([Engine.run ~buggify_active]),
    bypassing the draw. Outside a
    buggified run every point is inert, so the same code runs in
    "production" mode. The per-point decisions, the RNG stream and the
    fired set belong to the current {!Run.t}, so each {!Engine.run} starts
    afresh. *)

val on : ?p:float -> string -> bool
(** [on name] — should this point fire now? Deterministic given the run
    seed. [p] is the per-evaluation firing probability (default 0.25). *)

val delay : ?p:float -> string -> float
(** Random small delay (0–1 s) to inject if the point fires, else 0. *)

val points_hit : unit -> string list
(** Names of points that fired at least once in the current or most
    recent run (coverage reporting). *)
