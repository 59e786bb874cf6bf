(** Log-bucketed latency/size histogram with percentile queries.

    Buckets grow geometrically so the histogram covers nanoseconds to minutes
    with bounded memory and ~1% relative error, which is what the evaluation
    figures need (averages, p99.9, CDFs). *)

type t

val create : unit -> t
(** Empty histogram covering (0, +inf); values <= 0 are clamped to the
    smallest bucket. *)

val add : t -> float -> unit
(** Record one sample. *)

val merge_into : dst:t -> t -> unit
(** Accumulate the samples of the second histogram into [dst]. *)

val count : t -> int
(** Number of recorded samples. *)

val total : t -> float
(** Sum of recorded samples. *)

val mean : t -> float
(** Arithmetic mean; 0 when empty. *)

val max_value : t -> float
(** Largest recorded sample; 0 when empty. *)

val min_value : t -> float
(** Smallest recorded sample; 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]]: approximate p-th percentile
    (upper bound of the containing bucket). 0 when empty. *)

val cdf_points : t -> (float * float) list
(** Non-empty buckets as [(upper_bound, cumulative_fraction)] pairs, for
    CDF plots like the paper's Figure 10. *)
