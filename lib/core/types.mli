(** Shared identifiers and key-space helpers for the database core. *)

type version = int64
(** Commit / read versions double as Log Sequence Numbers (paper §2.4.2).
    The Sequencer advances them at ~1M versions per second. *)

type tag = int
(** StorageServer tag: names the mutation stream a LogServer keeps for one
    StorageServer (paper Figure 2). *)

type epoch = int
(** Generation of the transaction management system (paper §2.3.5). *)

val versions_per_second : float
(** Rate at which commit versions advance (1e6, per §2.4.1). *)

val mvcc_window : version
(** The multi-version history kept, in versions: 5 seconds' worth (§6.4).
    Storage servers serve reads this far back; the resolver remembers
    writes this long. *)

val time_version : unit -> version
(** The simulated clock in versions: the version the Sequencer would hand
    out now at {!versions_per_second}. *)

val key_space_end : string
(** Exclusive upper bound of the user key space, ["\xff"]. Keys at or above
    it are reserved for system use. *)

val system_key_space_end : string
(** End of the whole key space including system keys, ["\xff\xff"]. *)

val next_key : string -> string
(** Smallest key strictly greater than the argument ([k ^ "\x00"]). *)

val strinc : string -> string
(** Smallest key strictly greater than every key with the given prefix
    (increment the last non-0xff byte, truncating what follows). Raises
    [Invalid_argument] on the empty string or all-0xff input. *)

val range_of_prefix : string -> string * string
(** [\[prefix, strinc prefix)] — every key that starts with [prefix]. *)

val key_size_limit : int
(** 10 kB (paper §2.2). *)

val value_size_limit : int
(** 100 kB (paper §2.2). *)

val transaction_size_limit : int
(** 10 MB (paper §2.2). *)

val version_to_bytes : version -> string
(** 8-byte big-endian encoding (versionstamp prefix ordering). *)

val version_of_bytes : string -> version
(** Inverse of {!version_to_bytes} on its first 8 bytes. *)
