(** History recorder + strict-serializability verifier.

    Committed transactions are recorded with their read version, commit
    version, observed reads and performed writes. Verification replays the
    history in commit-version order and checks that every recorded read
    observed exactly the newest write at or below its read version — i.e.
    the execution matches the serial order the Sequencer defined (§2.4.2).
    Real-time order is inherited from version order: a read version is
    guaranteed to dominate every previously acknowledged commit. *)

type t

type recorded = {
  rc_read_version : int64;
  rc_commit_version : int64;
  rc_reads : (string * string option) list;  (** key, observed value *)
  rc_writes : (string * string option) list;  (** key, new value (None = clear) *)
}

val create : unit -> t
val record : t -> recorded -> unit

val verify : t -> (unit, string) result
(** Check every read in the history; [Error] carries a description of the
    first violation. *)
