open Fdb_sim
open Future.Syntax
module Register = Fdb_paxos.Register

type t = {
  ctx : Context.t;
  proc : Process.t;
  ep : int;
  ratekeeper : int option;
  cc : int; (* the recruiting ClusterController's worker endpoint *)
  mutable rv_history : (Types.epoch * Types.version) list;
  mutable epoch : Types.epoch;
  mutable recovered : bool;
  mutable dead : bool;
  mutable last_version : Types.version; (* last issued commit version *)
  mutable committed : Types.version; (* max acknowledged commit version *)
  mutable rv : Types.version; (* this epoch's recovery version *)
  mutable proxies : int list;
  mutable resolvers : (Message.key_range * int) list;
  mutable logs : (int * int) list;
}

let epoch t = t.epoch
let is_recovered t = t.recovered
let is_dead t = t.dead
let recovery_version t = t.rv
let proxies t = t.proxies

(* The endpoint stays registered: [handle] answers every request with
   [Wrong_epoch] from now on, so the ClusterController's next ping and our
   proxies' next calls learn of the death at once instead of timing out. *)
let die t reason =
  if not t.dead then begin
    t.dead <- true;
    Trace.emit "sequencer_die" [ ("epoch", string_of_int t.epoch); ("reason", reason) ]
  end

(* ---------- recovery (paper §2.4.4) ---------- *)

(* Stop the previous generation's LogServers and gather their KCV/DV and
   unpopped entries. Proceeds as soon as m - k + 1 have replied — every tag's
   data is then covered by some responder, and every acknowledged commit is
   durable on every LogServer, so any such quorum yields RV >= every
   acknowledged version (DESIGN.md, "Ending a generation"). A dead
   LogServer's RPC timeout is never waited out. Replies come back in
   [cs_logs] order. *)
let lock_old_logs t (old : Message.coordinated_state) =
  let m = List.length old.Message.cs_logs in
  let needed = m - old.Message.cs_log_replication + 1 in
  let rec gather () =
    if t.dead then Future.fail (Error.Fdb Error.Wrong_epoch)
    else begin
      let got = ref [] and outstanding = ref m in
      let quorum, reached = Future.make ~label:"sequencer.lock_quorum" () in
      List.iteri
        (fun i (_, ep) ->
          Future.on_resolve
            (Context.rpc t.ctx ~timeout:1.0 ~from:t.proc ep
               (Message.Log_lock { ll_epoch = t.epoch }))
            (fun reply ->
              decr outstanding;
              (match reply with
              | Ok (Message.Log_lock_reply { lk_kcv; lk_dv; lk_entries }) ->
                  got := (i, (lk_kcv, lk_dv, lk_entries)) :: !got
              | _ -> ());
              if Future.is_pending quorum
                 && (List.length !got >= needed || !outstanding = 0)
              then
                Future.fulfill reached
                  (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !got))))
        old.Message.cs_logs;
      let* replies = quorum in
      if List.length replies >= needed then Future.return replies
      else
        let* () = Engine.sleep 0.3 in
        gather ()
    end
  in
  gather ()

(* Merge the unpopped entries of all responding old LogServers: the same
   LSN on different servers carries different tags. Each tag's stream comes
   from the first responder holding it, so an entry rebuilt from several
   servers may carry a mutation once per contributing server (hand-off is
   rare; it is not deduplicated). *)
let merge_entries (replies : (Types.version * Types.version * Message.log_entry list) list) rv =
  let module Det_tbl = Fdb_util.Det_tbl in
  let table : (Types.version, Message.log_entry) Det_tbl.t = Det_tbl.create ~size:1024 () in
  List.iter
    (fun (_, _, entries) ->
      List.iter
        (fun (e : Message.log_entry) ->
          if e.Message.le_lsn <= rv then
            match Det_tbl.find_opt table e.Message.le_lsn with
            | None -> Det_tbl.add table e.Message.le_lsn e
            | Some existing -> (
                let have =
                  List.concat_map (fun tm -> tm.Message.tm_tags) existing.Message.le_payload
                in
                match Log_server.keep_tags (fun tag -> not (List.mem tag have)) e with
                | None -> ()
                | Some extra ->
                    Det_tbl.replace table e.Message.le_lsn
                      {
                        existing with
                        Message.le_payload =
                          existing.Message.le_payload @ extra.Message.le_payload;
                      }))
        entries)
    replies;
  (* LSN-sorted by Det_tbl's key order already. *)
  List.map snd (Det_tbl.to_sorted_list table)

(* Ask workers to host a role, walking machines round-robin from [offset]
   until one answers. Retries forever: recovery cannot proceed without the
   role, and the ClusterController will replace us if we take too long. *)
let recruit_one t ~offset ~used msg =
  let machines = Array.length t.ctx.Context.worker_eps in
  let rec attempt d =
    if t.dead then Future.fail (Error.Fdb Error.Wrong_epoch)
    else if d >= machines then
      let* () = Engine.sleep 0.5 in
      attempt 0
    else begin
      let m = (offset + d) mod machines in
      if List.mem m !used && d < machines - 1 then attempt (d + 1)
      else
        Future.catch
          (fun () ->
            let* reply =
              Context.rpc t.ctx ~timeout:1.0 ~from:t.proc
                t.ctx.Context.worker_eps.(m) msg
            in
            match reply with
            | Message.Recruited { endpoint } ->
                used := m :: !used;
                Future.return endpoint
            | _ -> Future.fail (Error.Fdb (Error.Internal "bad recruit reply")))
          (fun _ -> attempt (d + 1))
    end
  in
  attempt 0

(* Key-range partition for resolvers: even two-byte-prefix split, mirroring
   Shard_map's boundaries. *)
let resolver_ranges n =
  let boundary i =
    if i = 0 then ""
    else if i >= n then Types.system_key_space_end
    else
      let x = i * 65536 / n in
      String.init 2 (fun b -> Char.chr ((x lsr (8 * (1 - b))) land 0xff))
  in
  List.init n (fun i -> (boundary i, boundary (i + 1)))

(* New LogServer [i]'s share of the hand-off: the mutations with a tag it
   replicates, each keeping only those tags. *)
let seed_entries ~entries ~n_logs ~replication i =
  List.filter_map
    (Log_server.keep_tags (Log_server.replicates ~n_logs ~replication i))
    entries

let seed_new_logs t ~entries ~log_eps ~replication =
  let n_logs = List.length log_eps in
  let seeds =
    List.mapi
      (fun i (_, ep) ->
        let mine = seed_entries ~entries ~n_logs ~replication i in
        if mine = [] then Future.return ()
        else
          let* _ =
            Context.rpc t.ctx ~timeout:5.0 ~from:t.proc ep
              (Message.Log_seed { ls_entries = mine })
          in
          Future.return ())
      log_eps
  in
  Future.all_unit seeds

let broadcast_ss_recover t =
  Array.iter
    (fun ep ->
      Engine.spawn ~process:t.proc "ss-recover-cast" (fun () ->
          Future.catch
            (fun () ->
              let* _ =
                Context.rpc t.ctx ~timeout:2.0 ~from:t.proc ep
                  (Message.Ss_recover
                     {
                       sr_epoch = t.epoch;
                       sr_rv = t.rv;
                       sr_history = t.rv_history;
                       sr_logs = t.logs;
                     })
              in
              Future.return ())
            (fun _ -> Future.return ())))
    t.ctx.Context.storage_eps

let time_version () = Int64.of_float (Engine.now () *. Types.versions_per_second)

let recover t =
  let reg =
    Register.create
      (Context.paxos_transport t.ctx ~from:t.proc)
      ~reg:"ts-state" ~proposer:(Context.proposer_id t.proc)
  in
  let* old_value = Register.lock_and_read reg in
  let old = Option.bind old_value Message.decode_coordinated_state in
  t.epoch <- (match old with Some o -> o.Message.cs_epoch + 1 | None -> 1);
  Trace.emit "recovery_begin" [ ("epoch", string_of_int t.epoch) ];
  (* Phase 1: stop the old LogServers and establish PEV / RV. *)
  let* rv, seed_entries =
    match old with
    | None -> Future.return (0L, [])
    | Some o when o.Message.cs_logs = [] -> Future.return (o.Message.cs_recovery_version, [])
    | Some o ->
        let* replies = lock_old_logs t o in
        let pev = List.fold_left (fun acc (kcv, _, _) -> max acc kcv) 0L replies in
        let rv =
          List.fold_left (fun acc (_, dv, _) -> min acc dv) Int64.max_int replies
        in
        let rv = max rv pev in
        let entries = merge_entries replies rv in
        Trace.emit "recovery_locked"
          [ ("pev", Int64.to_string pev); ("rv", Int64.to_string rv);
            ("entries", string_of_int (List.length entries)) ];
        Future.return (rv, entries)
  in
  t.rv <- rv;
  (let old_history = match old with Some o -> o.Message.cs_rv_history | None -> [] in
   let rec trim n = function [] -> [] | _ when n = 0 -> [] | x :: tl -> x :: trim (n - 1) tl in
   t.rv_history <- trim 64 ((t.epoch, rv) :: old_history));
  if t.dead then Future.return ()
  else begin
    (* Phase 2: recruit the new generation. *)
    let cfg = t.ctx.Context.config in
    let used = ref [ t.proc.Process.machine.Process.machine_id ] in
    let recruit_list n mk =
      let rec go i acc =
        if i = n then Future.return (List.rev acc)
        else
          let* ep = recruit_one t ~offset:(t.epoch + i) ~used (mk i) in
          go (i + 1) (ep :: acc)
      in
      go 0 []
    in
    let* log_raw =
      recruit_list cfg.Config.log_servers (fun i ->
          Message.Recruit_log { rl_epoch = t.epoch; rl_id = i; rl_start_lsn = rv })
    in
    let log_eps = List.mapi (fun i ep -> (i, ep)) log_raw in
    (* fdb-lint: allow R5 -- Context.config is an immutable field: cfg cannot go stale across the recruit yields *)
    let ranges = resolver_ranges cfg.Config.resolvers in
    let* resolver_raw =
      let rec go i acc =
        if i = cfg.Config.resolvers then Future.return (List.rev acc)
        else
          let range = List.nth ranges i in
          let* ep =
            recruit_one t ~offset:(t.epoch + 7 + i) ~used
              (Message.Recruit_resolver
                 { rr_epoch = t.epoch; rr_range = range; rr_start_lsn = rv })
          in
          go (i + 1) ((range, ep) :: acc)
      in
      go 0 []
    in
    (* Phase 3: seed the new logs with the old unpopped history (this both
       heals replication for [PEV+1, RV] and lets lagging StorageServers
       catch up on older data). *)
    let* () =
      seed_new_logs t ~entries:seed_entries ~log_eps
        ~replication:cfg.Config.log_replication
    in
    if t.dead then Future.return ()
    else begin
      t.logs <- log_eps;
      t.resolvers <- resolver_raw;
      (* Phase 4: write the new coordinated state; losing the lock here
         means another recovery superseded us. *)
      let state =
        Message.encode_coordinated_state
          {
            Message.cs_epoch = t.epoch;
            cs_logs = log_eps;
            cs_log_replication = cfg.Config.log_replication;
            cs_recovery_version = rv;
            cs_rv_history = t.rv_history;
          }
      in
      let* () =
        Future.catch
          (fun () -> Register.write reg state)
          (fun e ->
            die t "lock lost during recovery";
            Future.fail e)
      in
      (* Phase 5: recruit proxies (they can start committing immediately). *)
      let* proxy_eps =
        recruit_list cfg.Config.proxies (fun _rank ->
            Message.Recruit_proxy
              {
                rp_epoch = t.epoch;
                rp_sequencer = t.ep;
                rp_resolvers = t.resolvers;
                rp_logs = t.logs;
                rp_ratekeeper = t.ratekeeper;
                rp_recovery_version = rv;
              })
      in
      t.proxies <- proxy_eps;
      (* The LSN chain must start exactly at RV: resolvers and new logs
         were recruited with start_lsn = RV, so the first batch's prev
         must be RV. Later versions jump to time-based values. *)
      t.last_version <- rv;
      t.committed <- rv;
      t.recovered <- true;
      Trace.emit "recovery_complete"
        [ ("epoch", string_of_int t.epoch); ("rv", Int64.to_string rv) ];
      (* Tell the ClusterController now rather than at its next ping: it
         holds clients' state requests until the new proxies exist. *)
      Network.send t.ctx.Context.net ~from:t.proc t.cc
        (Message.Cc_recovered
           {
             cr_sequencer = t.ep;
             cr_epoch = t.epoch;
             cr_proxies = t.proxies;
             cr_logs = t.logs;
             cr_rv = rv;
           });
      (* Phase 6: the "special recovery transaction": tell StorageServers
         the RV, the new logs, and the new epoch. *)
      broadcast_ss_recover t;
      Future.return ()
    end
  end

(* ---------- monitoring (§2.3.5: any TS/LS failure ends the epoch) ---------- *)

let monitor t =
  (* Progress watchdog: if commit versions are outstanding but nothing gets
     acknowledged for a long time, the LSN chain has a hole (e.g. a version
     handed out whose batch was never pushed) — only a new generation can
     unwedge that. *)
  let stagnant_since = ref None in
  let check_progress () =
    if t.last_version > t.committed then begin
      match !stagnant_since with
      | None -> stagnant_since := Some (Engine.now (), t.committed)
      | Some (_, c) when c <> t.committed ->
          stagnant_since := Some (Engine.now (), t.committed)
      | Some (since, _) ->
          if Engine.now () -. since > 5.0 then die t "commit pipeline stalled"
    end
    else stagnant_since := None
  in
  let rec loop () =
    if t.dead then Future.return ()
    else
      let* () = Engine.sleep Params.heartbeat_interval in
      if not t.recovered then loop ()
      else begin
        check_progress ();
        let targets =
          t.proxies @ List.map snd t.resolvers @ List.map snd t.logs
        in
        let checks =
          List.map
            (fun ep ->
              Future.catch
                (fun () ->
                  let* reply =
                    Context.rpc t.ctx ~timeout:Params.heartbeat_timeout ~from:t.proc ep
                      Message.Seq_ping
                  in
                  match reply with Message.Ok_reply -> Future.return true | _ -> Future.return false)
                (fun _ -> Future.return false))
            targets
        in
        let* oks = Future.all checks in
        if List.exists not oks then begin
          die t "role failure detected";
          Future.return ()
        end
        else loop ()
      end
  in
  loop ()

(* ---------- request handling ---------- *)

let handle t (msg : Message.t) : Message.t Future.t =
  if t.dead then Future.return (Message.Reject Error.Wrong_epoch)
  else
    match msg with
    | Message.Seq_ping ->
        Future.return
          (Message.Seq_pong
             {
               sp_epoch = t.epoch;
               sp_recovered = t.recovered;
               sp_proxies = t.proxies;
               sp_logs = t.logs;
               sp_rv = t.rv;
             })
    | Message.Seq_grv ->
        if not t.recovered then Future.return (Message.Reject Error.Database_locked)
        else if Buggify.on ~p:0.01 "seq_grv_reject" then
          Future.return (Message.Reject Error.Database_locked)
        else
          let* () = Engine.cpu t.proc Params.sequencer_per_request in
          Future.return (Message.Seq_grv_reply { read_version = t.committed; grv_epoch = t.epoch })
    | Message.Seq_version ->
        if not t.recovered then Future.return (Message.Reject Error.Database_locked)
        else begin
          let* () = Engine.cpu t.proc Params.sequencer_per_request in
          let v =
            let tv = time_version () in
            if tv > Int64.add t.last_version 1L then tv else Int64.add t.last_version 1L
          in
          let prev = t.last_version in
          t.last_version <- v;
          Future.return (Message.Seq_version_reply { version = v; prev })
        end
    | Message.Seq_report { committed } ->
        (* A pipelined proxy keeps several batches in flight and serializes
           only its *sends*: report RPCs for consecutive LSNs may overlap on
           the wire, and with several proxies reports interleave arbitrarily.
           The max-merge makes any in-order-per-proxy delivery safe — each
           proxy only reports an LSN after all its smaller LSNs are durable,
           so [t.committed] never exposes a non-durable prefix. *)
        if committed > t.committed then t.committed <- committed;
        Trace.emit "seq_report" [ ("lsn", Int64.to_string committed) ];
        Future.return Message.Ok_reply
    | _ -> Future.return (Message.Reject (Error.Internal "sequencer: unexpected message"))

let create ctx proc ~ratekeeper ~cc =
  let ep = Network.fresh_endpoint ctx.Context.net in
  let t =
    {
      ctx;
      proc;
      ep;
      ratekeeper;
      cc;
      rv_history = [];
      epoch = 0;
      recovered = false;
      dead = false;
      last_version = 0L;
      committed = 0L;
      rv = 0L;
      proxies = [];
      resolvers = [];
      logs = [];
    }
  in
  Network.register ctx.Context.net ep proc (handle t);
  Engine.spawn ~process:proc "sequencer-recovery" (fun () ->
      Future.catch
        (fun () -> recover t)
        (fun exn ->
          die t ("recovery failed: " ^ Printexc.to_string exn);
          Future.return ()));
  Engine.spawn ~process:proc "sequencer-monitor" (fun () -> monitor t);
  (t, ep)
