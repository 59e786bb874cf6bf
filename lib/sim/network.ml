module Rng = Fdb_util.Det_rng
module Det_tbl = Fdb_util.Det_tbl

type endpoint = int

(* A call's promise with its answer type hidden, and the process waiting
   for it with the incarnation that made the call: a timeout or a refusal
   only breaks it. *)
type pending = Pending : 'r Future.promise * Process.t * int -> pending

(* The calls one process has not answered yet, by rpc id. *)
type calls = (int, pending) Det_tbl.t

type 'r reply = {
  rpc_id : int;
  reply_to : Process.t;
  reply_inc : int; (* [reply_to]'s incarnation when it called *)
  promise : 'r Future.promise;
  calls : calls;
}

type answer = Reply : 'r Future.t * 'r reply -> answer | Done : _ Future.t -> answer

type 'm handler = { h_proc : Process.t; h_inc : int; h_fn : 'm -> answer; h_calls : calls }

type 'm t = {
  rng : Rng.t;
  dc_latency : (string * string, float) Hashtbl.t;
  partitions : (int * int, unit) Hashtbl.t;
  clogged : (int, float) Hashtbl.t;
  handlers : (endpoint, 'm handler) Hashtbl.t;
  callees : (int, calls) Hashtbl.t; (* by pid *)
  unrouted : calls; (* calls to an endpoint with no handler *)
  mutable next_endpoint : int;
  mutable next_rpc : int;
}

let bytes_per_sec = 1.25e9 (* 10 GbE *)

let create () =
  {
    rng = Engine.fork_rng ();
    dc_latency = Hashtbl.create 8;
    partitions = Hashtbl.create 8;
    clogged = Hashtbl.create 8;
    handlers = Hashtbl.create 64;
    callees = Hashtbl.create 64;
    unrouted = Det_tbl.create ();
    next_endpoint = 0;
    next_rpc = 0;
  }

let set_dc_latency t a b l =
  Hashtbl.replace t.dc_latency (a, b) l;
  Hashtbl.replace t.dc_latency (b, a) l

let partition t ~from ~to_ = Hashtbl.replace t.partitions (from, to_) ()
let heal t ~from ~to_ = Hashtbl.remove t.partitions (from, to_)
let clog_machine t m until = Hashtbl.replace t.clogged m until

let fresh_endpoint t =
  t.next_endpoint <- t.next_endpoint + 1;
  t.next_endpoint

let base_latency t (src : Process.machine) (dst : Process.machine) =
  if src.Process.machine_id = dst.Process.machine_id then 5e-5
  else if src.Process.dc = dst.Process.dc then 1.5e-4
  else
    match Hashtbl.find_opt t.dc_latency (src.Process.dc, dst.Process.dc) with
    | Some l -> l
    | None -> 0.03

let clog_delay t machine_id =
  match Hashtbl.find_opt t.clogged machine_id with
  | Some until ->
      let d = until -. Engine.now () in
      if d > 0.0 then d else 0.0
  | None -> 0.0

(* Compute delivery delay; None if a partition drops the message. *)
let route t ~(src : Process.machine) ~(dst : Process.machine) ~bytes =
  if Hashtbl.mem t.partitions (src.Process.machine_id, dst.Process.machine_id) then None
  else begin
    let base = base_latency t src dst in
    let jitter = Rng.exponential t.rng (base /. 4.0) in
    let transmit = float_of_int bytes /. bytes_per_sec in
    let clog =
      clog_delay t src.Process.machine_id +. clog_delay t dst.Process.machine_id
    in
    Some (base +. jitter +. transmit +. clog)
  end

let handler_error ep exn =
  Trace.emit "rpc_handler_error"
    [ ("exn", Printexc.to_string exn); ("endpoint", string_of_int ep) ]

(* Break a still-pending call with [Timed_out]: its timeout fired, or its
   callee's machine refused it. *)
let fail_pending calls rpc_id =
  match Det_tbl.find_opt calls rpc_id with
  | None -> ()
  | Some (Pending (promise, _, _)) ->
      Det_tbl.remove calls rpc_id;
      (* The promise was still registered, so a false break means the
         caller got neither reply nor timeout — a lost wakeup. *)
      if not (Future.try_break promise Engine.Timed_out) then
        Trace.emit "rpc_timeout_lost" [ ("rpc_id", string_of_int rpc_id) ]

(* [callee]'s machine refuses call [rpc_id] and the refusal leaves it for
   [caller] now: it breaks the call one network delay later, unless a
   partition drops it or the machine is down by then. *)
let refuse t ~(callee : Process.t) ~(caller : Process.t) calls rpc_id =
  match route t ~src:callee.Process.machine ~dst:caller.Process.machine ~bytes:0 with
  | None -> ()
  | Some delay ->
      Engine.schedule ~after:delay ~process:caller (fun () ->
          if Process.machine_up callee.Process.machine && Det_tbl.mem calls rpc_id then begin
            Trace.emit "rpc_refused" [ ("pid", string_of_int callee.Process.pid) ];
            fail_pending calls rpc_id
          end)

(* The calls a process has open, created with the hook that resets them
   when it dies: a connection reset, not the callers' timeouts, ends them
   whenever its machine stays up. A caller that has rebooted since its call
   is not the one that made it: that call is forgotten, not refused. *)
let calls_of t (p : Process.t) =
  match Hashtbl.find_opt t.callees p.Process.pid with
  | Some calls -> calls
  | None ->
      let calls = Det_tbl.create () in
      Hashtbl.replace t.callees p.Process.pid calls;
      Process.on_reboot p (fun () ->
          Det_tbl.iter
            (fun rpc_id (Pending (_, caller, inc)) ->
              if caller.Process.incarnation <> inc then Det_tbl.remove calls rpc_id
              else refuse t ~callee:p ~caller calls rpc_id)
            calls);
      calls

let register t ep proc fn =
  Hashtbl.replace t.handlers ep
    { h_proc = proc; h_inc = proc.Process.incarnation; h_fn = fn; h_calls = calls_of t proc }

(* Route [resp] back to the caller, unless its call was already broken.
   Only the incarnation that made the call may see the answer: a caller
   that has rebooted since is not sent it, and its call is forgotten. *)
let respond t (h : _ handler) { rpc_id; reply_to; reply_inc; promise; calls } resp =
  if reply_to.Process.incarnation <> reply_inc then Det_tbl.remove calls rpc_id
  else
    match route t ~src:h.h_proc.Process.machine ~dst:reply_to.Process.machine ~bytes:0 with
    | None -> ()
    | Some delay ->
        Engine.schedule ~after:delay ~process:reply_to (fun () ->
            if Det_tbl.mem calls rpc_id then begin
              Det_tbl.remove calls rpc_id;
              (* A false here is a reply the caller will never see: surface
                 it, don't drop it. *)
              if not (Future.try_fulfill promise resp) then
                Trace.emit "rpc_reply_lost" [ ("rpc_id", string_of_int rpc_id) ]
            end)

(* Deliver a message to [ep]'s handler; route the answer back, if any. *)
let deliver t ep payload =
  match Hashtbl.find_opt t.handlers ep with
  | None -> () (* no such endpoint (yet / anymore): caller times out *)
  | Some h ->
      if not (Process.is_live h.h_proc h.h_inc) then ()
      else
        Engine.with_process h.h_proc (fun () ->
            match h.h_fn payload with
            | exception exn -> handler_error ep exn
            | Done fut ->
                Future.on_resolve fut (function
                  | Error exn -> handler_error ep exn
                  | Ok _ -> ())
            | Reply (fut, reply) ->
                Future.on_resolve fut (function
                  | Error exn -> handler_error ep exn
                  | Ok resp -> respond t h reply resp))

let transmit t ?(bytes = 0) ~(from : Process.t) (h : _ handler) ep payload =
  match route t ~src:from.Process.machine ~dst:h.h_proc.Process.machine ~bytes with
  | None -> ()
  | Some delay ->
      Engine.schedule ~after:delay ~process:h.h_proc (fun () -> deliver t ep payload)

let send t ?bytes ~from ep payload =
  match Hashtbl.find_opt t.handlers ep with
  | None -> ()
  | Some h -> transmit t ?bytes ~from h ep payload

(* A call to a process that is dead, or rebooted since [h] was registered,
   on a machine that is up: the request crosses the network and the
   machine refuses it, so the call fails one round trip after the send. *)
let refuse_on_arrival t ?(bytes = 0) ~(from : Process.t) (h : _ handler) rpc_id =
  match route t ~src:from.Process.machine ~dst:h.h_proc.Process.machine ~bytes with
  | None -> ()
  | Some delay ->
      Engine.schedule ~after:delay ~process:from (fun () ->
          refuse t ~callee:h.h_proc ~caller:from h.h_calls rpc_id)

let call t ?(timeout = 5.0) ?bytes ~from ep request =
  t.next_rpc <- t.next_rpc + 1;
  let rpc_id = t.next_rpc in
  let fut, promise = Future.make () in
  let handler = Hashtbl.find_opt t.handlers ep in
  let calls = match handler with Some h -> h.h_calls | None -> t.unrouted in
  let inc = from.Process.incarnation in
  Det_tbl.replace calls rpc_id (Pending (promise, from, inc));
  (match handler with
  | None -> () (* nobody will answer: the timeout ends the call *)
  | Some h ->
      if Process.is_live h.h_proc h.h_inc || not (Process.machine_up h.h_proc.Process.machine)
      then transmit t ?bytes ~from h ep (request { rpc_id; reply_to = from; reply_inc = inc; promise; calls })
      else refuse_on_arrival t ?bytes ~from h rpc_id);
  (* The timer finds the promise by id rather than capturing it, so a
     delivered reply is not kept alive until the timeout fires. *)
  Engine.schedule ~after:timeout (fun () -> fail_pending calls rpc_id);
  fut
