(** Small numeric helpers shared by benches and workloads. *)

type series = float list

val mean : series -> float
(** Arithmetic mean; 0 for the empty series. *)

val median : series -> float
(** Median (lower of the two middle elements for even lengths). *)

val percentile : series -> float -> float
(** [percentile xs p] is the nearest-rank p-th percentile, [p] in [\[0,100\]]. *)

val maximum : series -> float
