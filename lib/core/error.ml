type t =
  | Not_committed
  | Commit_unknown_result
  | Transaction_too_old
  | Future_version
  | Process_behind
  | Wrong_shard
  | Timed_out
  | Database_locked
  | Key_too_large
  | Value_too_large
  | Transaction_too_large
  | Key_outside_legal_range
  | Used_during_commit
  | Wrong_epoch
  | Internal of string

exception Fdb of t

let fail e = Fdb_sim.Future.fail (Fdb e)

let is_retryable = function
  | Not_committed | Commit_unknown_result | Transaction_too_old | Future_version
  | Process_behind | Wrong_shard | Timed_out | Database_locked ->
      true
  | Key_too_large | Value_too_large | Transaction_too_large | Key_outside_legal_range
  | Used_during_commit | Wrong_epoch | Internal _ ->
      false

let to_string = function
  | Not_committed -> "not_committed"
  | Commit_unknown_result -> "commit_unknown_result"
  | Transaction_too_old -> "transaction_too_old"
  | Future_version -> "future_version"
  | Process_behind -> "process_behind"
  | Wrong_shard -> "wrong_shard"
  | Timed_out -> "timed_out"
  | Database_locked -> "database_locked"
  | Key_too_large -> "key_too_large"
  | Value_too_large -> "value_too_large"
  | Transaction_too_large -> "transaction_too_large"
  | Key_outside_legal_range -> "key_outside_legal_range"
  | Used_during_commit -> "used_during_commit"
  | Wrong_epoch -> "wrong_epoch"
  | Internal s -> "internal: " ^ s
