(** The Resolver: lock-free OCC conflict detection (paper §2.4.2,
    Algorithm 1) over one partition of the key space.

    Batches arrive tagged with (LSN, previous LSN) and are processed
    strictly in LSN-chain order — out-of-order arrivals are parked until
    the chain fills in. A batch still parked after {!resolve_timeout} is
    answered with a rejection but stays parked, so a late predecessor
    still moves the chain past it.
    History older than the MVCC window is coalesced away; transactions
    whose read version predates the window are aborted as too old. *)

type t

val create :
  Context.t ->
  Fdb_sim.Process.t ->
  epoch:Types.epoch ->
  range:Message.key_range ->
  start_lsn:Types.version ->
  t * int
(** Instantiate and register; returns the endpoint. *)

val resolve_timeout : float
(** A proxy's resolve RPC timeout. A batch parked this long has been given
    up by its sender, so its waiter is answered with a rejection. *)

val last_lsn : t -> Types.version
