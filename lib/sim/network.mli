(** Simulated network with RPC (paper §4: "network, disk, time ... are
    abstracted" and injected with faults).

    The network is polymorphic in the message type ['m]; the database
    instantiates it with its request envelope. A call's answer does not
    travel as an ['m]: the caller hands the request a typed {!reply}
    token, and the handler answers through it, so the answer's type is
    fixed where the call is made. Latency is drawn
    per message from a distance-based model plus jitter, so reordering falls
    out naturally; partitions and clogging are injectable at machine
    granularity. Delivery tasks are owned by the destination process, so
    messages to dead or rebooted processes vanish. An RPC caller sees a
    failure two ways, as FDB's transport does: a machine that is up
    refuses a call to a process of it that is dead (or to an endpoint of
    an earlier incarnation) within one round trip, and resets the calls a
    process had open when it died; a machine that is down, or a partition,
    is silent, so only the call's timeout ends it. Both fail the call with
    {!Engine.Timed_out}: the caller cannot tell whether the request ran.
    A reply or a refusal reaches only the incarnation that made the call: a
    caller that has rebooted since never sees it. *)

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

type 'r reply
(** Where one call's answer of type ['r] goes: the caller, its correlation
    id and its pending promise. Built by {!call}, carried in the request. *)

(** What a handler does with a message. *)
type answer =
  | Reply : 'r Future.t * 'r reply -> answer
      (** send the future's value back through the token once it resolves *)
  | Done : _ Future.t -> answer  (** a one-way message: nothing goes back *)

val fresh_endpoint : 'm t -> endpoint

val register : 'm t -> endpoint -> Process.t -> ('m -> answer) -> unit
(** Install the message handler for an endpoint. The registration is valid
    for the process's current incarnation only; re-register after reboot.
    A handler that raises, or whose future fails, sends nothing back: an
    [rpc_handler_error] trace event names the exception and the endpoint,
    and the caller times out. *)

(** {2 RPC} *)

val call :
  'm t ->
  ?timeout:float ->
  ?bytes:int ->
  from:Process.t ->
  endpoint ->
  ('r reply -> 'm) ->
  'r Future.t
(** Request/response with correlation: [call net ~from ep request] sends
    [request token] and resolves with whatever the handler answers through
    [token]. Fails with {!Engine.Timed_out} after [timeout] seconds
    (default 5) if no answer arrives — because of a partition, a machine
    that is down, or a handler error — and sooner if the callee's machine
    is up but the callee is dead or rebooted: one round trip after the
    send, or one network delay after the callee died, if the call was
    already open. [bytes] adds transmission delay for large payloads. *)

val send : 'm t -> ?bytes:int -> from:Process.t -> endpoint -> 'm -> unit
(** One-way, best-effort message: the handler should answer [Done]. *)
