open Fdb_sim
open Future.Syntax
module Registry = Fdb_obs.Registry

type t = {
  ctx : Context.t;
  mutable rate : float;
  (* metrics plane: what we publish *)
  obs_rate : Registry.gauge;
  obs_throttles : Registry.counter;
  obs_ticks : Registry.counter;
}

let max_rate = 5e6
let min_rate = 100.0
let lag_limit = 2.0 (* seconds of storage lag before throttling *)
let window_limit = 2_000_000 (* buffered window events before throttling *)
let busy_limit = 0.2 (* seconds of storage CPU queue before throttling *)

let control_loop t =
  let rec loop () =
    let* () = Engine.sleep Params.ratekeeper_interval in
    let stats = Storage_server.live_load t.ctx.Context.metrics ~now:(Engine.now ()) in
    let worst_lag, worst_window, worst_busy =
      List.fold_left
        (fun (lag, win, busy) (ss_lag, ss_window_events, ss_busy) ->
          (Float.max lag ss_lag, max win ss_window_events, Float.max busy ss_busy))
        (0.0, 0, 0.0) stats
    in
    let overloaded =
      worst_lag > lag_limit || worst_window > window_limit || worst_busy > busy_limit
    in
    if overloaded then begin
      t.rate <- Float.max min_rate (t.rate *. 0.7);
      Registry.incr t.obs_throttles
    end
    else t.rate <- Float.min max_rate ((t.rate *. 1.05) +. 100.0);
    Registry.incr t.obs_ticks;
    Registry.set_gauge t.obs_rate t.rate;
    Trace.emit "ratekeeper_tick"
      [ ("rate", Printf.sprintf "%.0f" t.rate);
        ("worst_lag", Printf.sprintf "%.3f" worst_lag);
        ("worst_busy", Printf.sprintf "%.3f" worst_busy);
        ("worst_window", string_of_int worst_window) ];
    loop ()
  in
  loop ()

let handle (type r) t (req : r Message.req) : (r, Error.t) result Future.t =
  match req with
  | Message.Ping -> Future.return (Ok ())
  | Message.Rk_get_rate -> Future.return (Ok t.rate)
  | _ -> Future.return (Error (Error.Internal "ratekeeper: unexpected message"))

let create ctx proc =
  let ep = Network.fresh_endpoint ctx.Context.net in
  let reg = ctx.Context.metrics in
  let pid = proc.Process.pid in
  let t =
    {
      ctx;
      rate = 1e5;
      obs_rate = Registry.gauge reg ~role:Registry.Ratekeeper ~process:pid "rate";
      obs_throttles = Registry.counter reg ~role:Registry.Ratekeeper ~process:pid "throttles";
      obs_ticks = Registry.counter reg ~role:Registry.Ratekeeper ~process:pid "ticks";
    }
  in
  Registry.set_gauge t.obs_rate t.rate;
  Context.serve ctx ep proc { handle = (fun req -> handle t req) };
  Engine.spawn ~process:proc "ratekeeper" (fun () -> control_loop t);
  (t, ep)
