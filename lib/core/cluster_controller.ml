open Fdb_sim
open Future.Syntax

type t = {
  ctx : Context.t;
  proc : Process.t;
  mutable active : bool;
  mutable rk : int option;
  mutable dd : int option;
  mutable seq : int option;
  mutable pick : int; (* rotating worker choice *)
  (* last state learned from the sequencer *)
  mutable epoch : Types.epoch;
  mutable proxies : int list;
  mutable logs : (int * int) list;
  mutable recovered : bool;
  (* when the sequencer failure that began the running recovery was
     declared; [None] while recovered *)
  mutable failed_at : float option;
  (* clients' [Cc_get_state] polls, held until a generation recovers *)
  polls : Message.cc_state Failure_watch.t;
  obs_recovery : Fdb_obs.Registry.timer;
  obs_last_epoch : Fdb_obs.Registry.gauge;
  obs_last_duration : Fdb_obs.Registry.gauge;
}

let state_reply t =
  {
    Message.st_epoch = t.epoch;
    st_proxies = t.proxies;
    st_logs = t.logs;
    st_recovered = t.recovered;
    st_dd = t.dd;
  }

(* A client's poll for the current proxies: answered at once when a
   recovered generation other than the caller's [known] one is current,
   else held until [learn] records one recovering, or for a heartbeat
   interval (then answered with the state as it stands). *)
let get_state t ~known =
  if t.recovered && t.epoch <> known then Future.return (Ok (state_reply t))
  else Failure_watch.hold t.polls (fun () -> state_reply t)

(* Adopt the sequencer's view of its generation. A reply that would
   un-recover the generation we already know recovered is older than what
   we have (a probe answered before the recovery notice arrived): drop it.
   A generation that has just recovered answers every held client poll. *)
let learn t ~epoch ~recovered ~proxies ~logs =
  if not (t.recovered && (not recovered) && epoch = t.epoch) then begin
    let fresh = recovered && not (t.recovered && epoch = t.epoch) in
    t.epoch <- epoch;
    t.proxies <- proxies;
    t.logs <- logs;
    t.recovered <- recovered;
    if recovered then begin
      (match t.failed_at with
      | Some since ->
          let took = Engine.now () -. since in
          Fdb_obs.Registry.observe t.obs_recovery took;
          Fdb_obs.Registry.set_gauge t.obs_last_epoch (float_of_int epoch);
          Fdb_obs.Registry.set_gauge t.obs_last_duration took;
          t.failed_at <- None
      | None -> ());
      if fresh then Failure_watch.answer_all t.polls (state_reply t)
    end
  end

let note_recovered t ~sequencer ~epoch ~proxies ~logs =
  if t.active && t.seq = Some sequencer then learn t ~epoch ~recovered:true ~proxies ~logs

(* Ask workers round-robin until one hosts the role. *)
let recruit t msg =
  let machines = Array.length t.ctx.Context.worker_eps in
  let rec attempt tries =
    if tries >= machines then Future.return None
    else begin
      t.pick <- (t.pick + 1) mod machines;
      Future.catch
        (fun () ->
          let+ endpoint =
            Context.rpc t.ctx ~timeout:1.0 ~from:t.proc
              t.ctx.Context.worker_eps.(t.pick) msg
          in
          Some endpoint)
        (fun _ -> attempt (tries + 1))
    end
  in
  attempt 0

(* The long-poll on the sequencer also carries its view of the generation.
   It comes back after the sequencer's heartbeat interval, so it paces the
   supervision loop. *)
let poll_sequencer t ep =
  Future.catch
    (fun () ->
      let+ { Message.sp_epoch; sp_recovered; sp_proxies; sp_logs } =
        Context.wait_failure t.ctx ~from:t.proc ep Message.Seq_status
      in
      learn t ~epoch:sp_epoch ~recovered:sp_recovered ~proxies:sp_proxies ~logs:sp_logs;
      true)
    (fun _ -> Future.return false)

let ensure_singleton t current msg set =
  match current with
  | Some ep ->
      let* alive = Context.ping t.ctx ~from:t.proc ep in
      if not alive then set None;
      Future.return ()
  | None ->
      let* ep = recruit t msg in
      set ep;
      Future.return ()

(* The sequencer's generation is over: its proxies can commit nothing more,
   so tell them to die now and release their waiters, instead of leaving
   each to time out on its own calls. *)
let sequencer_failed t =
  Trace.emit "cc_sequencer_failed" [ ("epoch", string_of_int t.epoch) ];
  t.seq <- None;
  t.recovered <- false;
  if t.failed_at = None then t.failed_at <- Some (Engine.now ());
  if t.proxies <> [] then begin
    Trace.emit "cc_retire_proxies"
      [ ("epoch", string_of_int t.epoch);
        ("proxies", String.concat "," (List.map string_of_int t.proxies)) ];
    List.iter
      (fun ep ->
        Context.send t.ctx ~from:t.proc ep (Message.Proxy_retire { pr_epoch = t.epoch }))
      t.proxies;
    t.proxies <- []
  end

let recruit_sequencer t =
  if t.rk = None then Future.return ()
  else
    let self = t.ctx.Context.worker_eps.(t.proc.Process.machine.Process.machine_id) in
    let* ep = recruit t (Message.Recruit_sequencer { rs_ratekeeper = t.rk; rs_cc = self }) in
    (match ep with
    | Some _ -> Trace.emit "cc_sequencer_recruited" []
    | None -> ());
    t.seq <- ep;
    Future.return ()

let supervise t =
  let rec loop () =
    if not t.active then Future.return ()
    else
      let* () =
        ensure_singleton t t.rk Message.Recruit_ratekeeper (fun e -> t.rk <- e)
      in
      let* () =
        ensure_singleton t t.dd Message.Recruit_data_distributor (fun e -> t.dd <- e)
      in
      let* () =
        match t.seq with
        | Some ep ->
            let* alive = poll_sequencer t ep in
            if alive then Future.return ()
            else begin
              sequencer_failed t;
              (* Recruit the replacement at once. *)
              recruit_sequencer t
            end
        | None ->
            let* () = Engine.sleep Params.heartbeat_interval in
            recruit_sequencer t
      in
      loop ()
  in
  loop ()

let start ctx proc =
  let reg = ctx.Context.metrics in
  let machine = proc.Process.machine.Process.machine_id in
  let role = Fdb_obs.Registry.Cluster_controller in
  let t =
    {
      ctx;
      proc;
      active = true;
      rk = None;
      dd = None;
      seq = None;
      pick = machine;
      epoch = 0;
      proxies = [];
      logs = [];
      recovered = false;
      failed_at = None;
      polls = Failure_watch.create proc;
      obs_recovery = Fdb_obs.Registry.histogram reg ~role ~process:machine "recovery_duration";
      obs_last_epoch = Fdb_obs.Registry.gauge reg ~role ~process:machine "last_recovery_epoch";
      obs_last_duration =
        Fdb_obs.Registry.gauge reg ~role ~process:machine "last_recovery_duration";
    }
  in
  Trace.emit "cc_elected" [ ("machine", string_of_int machine) ];
  Engine.spawn ~process:proc "cluster-controller" (fun () -> supervise t);
  t

let stop t =
  t.active <- false;
  Failure_watch.fail t.polls;
  Trace.emit "cc_deposed"
    [ ("machine", string_of_int t.proc.Process.machine.Process.machine_id) ]
