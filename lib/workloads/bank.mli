(** Bank workload: the classic atomicity/isolation oracle (paper §4 "test
    oracles": invariants "that can only be maintained through transaction
    atomicity and isolation").

    A fixed set of accounts holds integer balances; transactions move random
    amounts between random pairs. The total balance is invariant under any
    serializable execution — even with duplicated retries after
    commit-unknown-result, since both sides of a transfer move together. *)

type stats = {
  transfers_committed : int;
  conflicts : int;
  unknown_results : int;
  errors : int;
}

val setup : Fdb_core.Client.db -> accounts:int -> initial:int -> unit Fdb_sim.Future.t
(** Create [accounts] accounts with [initial] balance each. *)

val transfer_loop :
  Fdb_core.Client.db ->
  accounts:int ->
  until:float ->
  rng:Fdb_util.Det_rng.t ->
  stats Fdb_sim.Future.t
(** Keep making random transfers until the simulated time passes [until].
    Every transfer reads both balances, aborts application-side overdrafts,
    and writes both back. *)

val check :
  Fdb_core.Client.db -> accounts:int -> expected_total:int -> (unit, string) result Fdb_sim.Future.t
(** Read all balances in one transaction and verify the invariant: total
    preserved and no balance negative. *)
