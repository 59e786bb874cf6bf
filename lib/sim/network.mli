(** Simulated network with RPC (paper §4: "network, disk, time ... are
    abstracted" and injected with faults).

    The network is polymorphic in the message type ['m]; the database
    instantiates it with its RPC request/response variant. Latency is drawn
    per message from a distance-based model plus jitter, so reordering falls
    out naturally; partitions and clogging are injectable at machine
    granularity. Delivery tasks are owned by the destination process, so
    messages to dead or rebooted processes vanish, and RPC callers see
    timeouts — exactly the failure surface real code must handle. *)

type endpoint = int
(** A well-known address for a role instance (like FDB's NetworkAddress). *)

type 'm t

val create : unit -> 'm t
(** A fresh network. Needs a running {!Engine} for delivery. *)

(** {2 Topology and faults} *)

val set_dc_latency : 'm t -> string -> string -> float -> unit
(** One-way base latency between two datacenters (applied symmetrically).
    Defaults: 50 µs same machine, 150 µs same DC, 30 ms cross-DC. *)

val partition : 'm t -> from:int -> to_:int -> unit
(** Block messages from machine [from] to machine [to_] (directed). *)

val heal : 'm t -> from:int -> to_:int -> unit

val clog_machine : 'm t -> int -> float -> unit
(** Delay all traffic touching the machine until the given absolute time. *)

(** {2 Endpoints} *)

val fresh_endpoint : 'm t -> endpoint
val register : 'm t -> endpoint -> Process.t -> ('m -> 'm Future.t) -> unit
(** Install the request handler for an endpoint. The registration is valid
    for the process's current incarnation only; re-register after reboot. *)

(** {2 RPC} *)

val call :
  'm t -> ?timeout:float -> ?bytes:int -> from:Process.t -> endpoint -> 'm -> 'm Future.t
(** Request/response with correlation. Fails with {!Engine.Timed_out} after
    [timeout] seconds (default 5) if no response arrives — because of loss,
    partition, a dead endpoint, or a handler error. [bytes] adds
    transmission delay for large payloads. *)

val send : 'm t -> ?bytes:int -> from:Process.t -> endpoint -> 'm -> unit
(** One-way, best-effort message (response discarded). *)
