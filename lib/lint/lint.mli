(** [fdb_lint]: the determinism lint (DESIGN.md, "The determinism contract").

    A compiler-libs based static-analysis pass (Parse + [Ast_iterator], no
    type information needed) that enforces the simulation-safety ruleset
    over every [.ml] file under [lib/], [bin/], and [bench/] (and, for R7,
    every [lib/] [.mli]):

    - {b R1} no wall-clock or ambient randomness: [Unix.*], [Sys.time],
      [Stdlib.Random] are forbidden outside [Fdb_util.Det_rng]; every
      other exemption is a per-line suppression with its reason.
    - {b R2} no raw [Hashtbl.iter]/[fold]/[to_seq] outside [lib/util]:
      iteration order must come from [Fdb_util.Det_tbl]'s key-sorted
      enumeration.
    - {b R3} every [ignore e] must carry a type annotation
      ([ignore (e : bool)]) so dropped [Future.t]s and booleans are visible
      in review.
    - {b R4} no [print_*]/[Printf.printf]/[exit] in library code
      ([lib/] only) — use [Trace]/[logs].
    - {b R5} cross-yield atomicity ([lib/] only): no write to a mutable
      location whose last read predates a yield point
      ([let*]/[let+]/[Future.bind]/[Future.map]), and no use of a local
      that captured such a location's value across a yield — other actors
      may have run in between (the historical commit_flush-race shape).
      Re-read after the yield, or suppress with the protecting invariant.
    - {b R6} future lifecycle ([lib/] only): no discarded [Future.t]s —
      [ignore (e : _ Future.t)], bare [Future.ignore_result], and
      statement-/[let _]-position discards of known future-returning calls
      are flagged. Fire-and-forget goes through [Future.detach ~name];
      the runtime sanitizer ([fdb_sim swarm --check-leaks]) catches the
      residue.
    - {b R7} no dead exports ([lib/] interfaces only): every [val] in a
      [.mli] must be referenced by some [.ml] under {!r7_reference_roots}
      other than its own module's. See {!dead_exports}.
    - {b R8} no module-level mutable state ([lib/] only): no
      structure-level [let] (nested modules included) bound to [ref],
      [Hashtbl.create], [Det_tbl.create], [Array.make], [Queue.create],
      [Buffer.create] or [Atomic.make]. A run's state lives in the record
      each [Engine.run] creates ([Fdb_sim.Run.t]).
    - {b R9} no one-sided protocol messages ([lib/] only): every
      constructor of the protocol's request type ([type _ req] of
      {!r9_protocol}) must be built by some expression and matched by some
      pattern in an implementation other than the protocol's own, and each
      field of every record the protocol declares read there; a protocol
      with no request type is itself a diagnostic. See
      {!one_sided_messages}.

    Per-line suppressions: a comment holding the [fdb-lint] marker, a
    colon and [allow R2 -- reason] (spelled apart here so the scanner does
    not match this file), on the violating line or alone on the line
    above. The reason is mandatory; a suppression without one is itself a
    diagnostic — and so is a stale one that no longer suppresses anything
    (the stale-suppression audit). *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9

val rule_name : rule -> string
val rule_of_string : string -> rule option

val explain : rule -> string
(** Long-form rationale shown by [fdb_lint --explain RULE]. *)

val all_rules : rule list

type diagnostic = {
  d_file : string;  (** repo-relative path *)
  d_line : int;  (** 1-based *)
  d_col : int;  (** 0-based, matching compiler convention *)
  d_rule : rule option;  (** [None] for tooling errors (parse failure, malformed or stale suppression) *)
  d_msg : string;
}

val pp_diagnostic : Format.formatter -> diagnostic -> unit
(** Renders [file:line:col: [RULE] message]. *)

val diagnostics_to_json : diagnostic list -> string
(** Machine-readable rendering ([fdb_lint --json]): a JSON array of
    [{"file":…,"line":…,"col":…,"rule":…,"msg":…}] objects, in the same
    order as the input. Tooling diagnostics render with ["rule":"lint"]. *)

val lint_source : path:string -> string -> diagnostic list
(** [lint_source ~path src] lints source text [src] as if it lived at
    repo-relative [path] (which decides rule applicability: R2 is waived
    under [lib/util/], R4/R5/R6/R8 apply only under [lib/]). Diagnostics come
    back in (line, col) order. *)

val lint_file : ?as_path:string -> string -> diagnostic list
(** Read and lint one file. [as_path] overrides the repo-relative path used
    for rule applicability and reporting (tests lint fixture files as if
    they sat under [lib/]). *)

val r7_reference_roots : string list
(** The directories whose [.ml] files count as references for R7:
    [lib bin bench test examples]. A test reference counts. *)

val dead_exports :
  interfaces:(string * string) list ->
  implementations:(string * string) list ->
  diagnostic list
(** R7 over [(repo-relative path, source)] pairs: every [val] of each
    interface (nested [module M : sig … end]s included) that no
    implementation other than the interface's own [.ml] references. A
    reference is resolved from the untyped AST: a qualified path (the
    library wrapper [Fdb_x.] is dropped), a path through a module alias,
    or a bare or partial path in a file that opens the module ([open],
    [let open], [M.( … )]). Record fields and labels are not references.
    Suppressions and the stale-suppression audit apply per interface as in
    {!lint_source}. An implementation that does not parse contributes no
    references. *)

val r9_protocol : string
(** The protocol file R9 checks: [lib/core/message.ml]. *)

val one_sided_messages :
  protocol:string * string -> implementations:(string * string) list -> diagnostic list
(** R9 over the protocol's [(repo-relative path, source)] and the
    implementations that may use it: each constructor of the protocol's
    [type _ req] that no implementation other than the protocol's own
    builds in an expression, or that none matches in a pattern, and each
    field of a record the protocol declares (a plain record type or a
    constructor's inline record, of any type) that none reads in a record
    pattern or a field access. A protocol that declares no [type _ req]
    yields one diagnostic on its first line instead, so the rule never
    passes by checking nothing. A constructor use is a qualified path
    through the protocol's module name (the library wrapper [Fdb_x.] is
    dropped); opens and aliases are not followed. A field read is counted
    by the field's name.
    Suppressions and the stale-suppression audit apply to the protocol
    file as in {!lint_source}. An implementation that does not parse
    contributes no uses. *)
