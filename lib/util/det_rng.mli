(** Deterministic pseudo-random number generator.

    A splitmix64 generator with explicit state. All randomness in the
    simulator and the database flows from instances of this module, so a
    whole simulation run is a pure function of its root seed. The standard
    library's [Random] is never used inside [lib/]. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent child generator, advancing [t]. Used to
    give each process/actor its own stream so that adding draws in one actor
    does not perturb others. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly in [\[0, bound)]. [bound] must be > 0. *)


val float : t -> float -> float
(** [float t bound] draws uniformly in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution with the
    given mean; used for inter-arrival times and latency jitter. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val alphanum : t -> int -> string
(** [alphanum t n] is a string of [n] random characters in [\[a-z0-9\]]. *)
