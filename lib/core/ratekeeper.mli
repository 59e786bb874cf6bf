(** The Ratekeeper: cluster-wide overload protection (paper §2.3.1).

    Polls StorageServer statistics and derives a transactions-per-second
    budget: additive increase while the cluster is healthy, multiplicative
    decrease when storage lag or version-window memory grows. Proxies poll
    the budget and meter GRV issuance against it, which is where client
    latency rises instead of the cluster melting down (Figure 9b). *)

type t

val create : Context.t -> Fdb_sim.Process.t -> t * int

val min_rate : float
(** Floor of the budget; the control loop never throttles below this. *)

val max_rate : float
(** Ceiling of the budget during additive increase. *)
