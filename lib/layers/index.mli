(** Transactional secondary indexes over a record store (paper §1: the
    index maintenance every layer builds from the core's transactions).

    A store keeps records at [("r", pkey)] inside its subspace, plus any
    number of index definitions. Every {!set}/{!clear} derives the index
    mutations from the record's old value (read with a normal,
    conflict-adding read) and buffers them in the {e same} transaction as
    the base write — so indexes are exactly consistent with records at
    every commit boundary, and two writers of one record serialize at the
    Resolver.

    Index kinds: [Value] (extracted tuples -> entry keys [("i", name,
    entry..., pkey)]), [Counter] (atomic-op LE64 aggregates at [("c",
    name, group...)], conflict-free), and [Versionstamp] (an append-only
    changelog at [("v", name) ^ stamp ^ pkey], stamped at commit). *)

type def =
  | Value of {
      name : string;
      extract : pkey:string -> value:string -> Fdb_core.Tuple.t list;
          (** index entries for one record; each tuple becomes one entry *)
    }
  | Counter of {
      name : string;
      group : pkey:string -> value:string -> Fdb_core.Tuple.t;
          (** the aggregate bucket the record counts toward *)
    }
  | Versionstamp of { name : string }

type store

val create : Subspace.t -> def list -> store
val subspace : store -> Subspace.t

val set : store -> Fdb_core.Client.tx -> string -> string -> unit Fdb_sim.Future.t
(** Write a record and every derived index mutation in the caller's
    transaction. *)

val clear : store -> Fdb_core.Client.tx -> string -> unit Fdb_sim.Future.t
(** Delete a record and retire its index entries / counter contributions. *)

val get :
  store -> Fdb_core.Client.tx -> string -> string option Fdb_sim.Future.t

val scan :
  ?snapshot:bool ->
  ?limit:int ->
  store ->
  Fdb_core.Client.tx ->
  (string * string) list Fdb_sim.Future.t
(** All records, [(pkey, value)], in key order. *)

val lookup :
  ?limit:int ->
  store ->
  Fdb_core.Client.tx ->
  index:string ->
  entry:Fdb_core.Tuple.t ->
  string list Fdb_sim.Future.t
(** Primary keys whose [Value] index entries start with [entry] (pass the
    full extracted tuple for an exact match, a prefix for a scan). *)

val counter_value :
  store ->
  Fdb_core.Client.tx ->
  index:string ->
  group:Fdb_core.Tuple.t ->
  int64 Fdb_sim.Future.t

val changes :
  ?limit:int ->
  store ->
  Fdb_core.Client.tx ->
  index:string ->
  (string * string) list Fdb_sim.Future.t
(** The [Versionstamp] changelog in commit order: [(stamp, pkey)]. *)

val verify : store -> Fdb_core.Client.tx -> string list Fdb_sim.Future.t
(** The consistency oracle: recompute every index from the records (one
    snapshot transaction) and diff against what is stored. [\[\]] means
    the maintenance invariant held; entries are human-readable
    discrepancies. *)

(**/**)

val le64 : int64 -> string
(** The counter encoding (exposed for tests and workloads). *)
