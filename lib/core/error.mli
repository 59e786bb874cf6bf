(** Typed client-visible errors, mirroring FDB's error model. *)

type t =
  | Not_committed  (** conflict detected by a Resolver — retry *)
  | Commit_unknown_result
      (** the commit may or may not have happened (e.g. recovery raced the
          acknowledgment); retrying requires idempotence *)
  | Transaction_too_old  (** read version fell out of the MVCC window *)
  | Future_version  (** StorageServer has not yet caught up to the version *)
  | Process_behind  (** StorageServer lagging too far; retry elsewhere *)
  | Wrong_shard
      (** StorageServer no longer serves the requested range (the client's
          shard-map snapshot went stale mid-read); re-resolve and retry *)
  | Timed_out
  | Database_locked  (** transaction system is recovering *)
  | Key_too_large
  | Value_too_large
  | Transaction_too_large
  | Key_outside_legal_range
  | Used_during_commit  (** transaction mutated while its commit is in flight *)
  | Wrong_epoch  (** message addressed to a superseded generation *)
  | Internal of string

exception Fdb of t
(** How errors travel through futures inside the database and the client. *)

val fail : t -> 'a Fdb_sim.Future.t
val is_retryable : t -> bool
(** May the client retry the transaction from the top? ([Commit_unknown_result]
    is retryable only for idempotent transactions; {!Client.run} treats it as
    retryable, matching FDB's default retry loop.) *)

val to_string : t -> string
