(* The DataDistributor (paper §2.3.1, §2.5): storage health monitoring plus
   active data distribution — splitting hot/large shards, merging cold
   adjacent ones, and moving shards between teams with fetch-then-cutover.

   The movement protocol:
   1. [Shard_map.begin_move] marks the shard: every mutation committed from
      now on is dual-tagged to the source AND destination teams, so the
      newcomers' own tLog tag streams carry the catch-up suffix.
   2. A write-only no-op *marker transaction* is committed; its commit
      version L* strictly exceeds every LSN assigned before the move began
      (proxies tag mutations after LSN assignment, so anything tagged
      source-only has a smaller LSN). We then poll GRVs until one reports
      >= L*: that version Vf is committed, recovery-stable, and covers the
      whole single-tagged prefix — a snapshot at Vf plus the dual-tagged
      stream above Vf reconstructs the shard exactly.
   3. Each newcomer fetches [lo, hi) at Vf from the current team
      ([Ss_fetch_shard]) and installs it under a movein floor.
   4. [Shard_map.commit_move] flips the serving team in one synchronous map
      mutation: no read ever observes a half-moved shard. Stale clients
      learn via Wrong_shard; readers below Vf get Transaction_too_old
      (retryable).
   Failure at any step aborts the move ([Shard_map.abort_move]); a
   reconciliation pass also aborts moves pending longer than
   [Params.dd_move_timeout] (the mover died mid-fetch). *)

open Fdb_sim
open Future.Syntax
module Det_tbl = Fdb_util.Det_tbl
module Registry = Fdb_obs.Registry

type t = {
  ctx : Context.t;
  proc : Process.t;
  ep : int;
  db : Client.db;
  alive_ss : bool array;
  mutable unhealthy : int;
  mutable zero_replica : bool;
  mutable running : bool;
  min_shards : int; (* never merge below the initial shard count *)
  prev_traffic : (string, int) Det_tbl.t; (* last counter sample, per ss/shard *)
  obs_unhealthy : Registry.gauge;
  obs_loss_risk : Registry.gauge;
  obs_splits : Registry.counter;
  obs_merges : Registry.counter;
  obs_moves : Registry.counter;
  obs_aborts : Registry.counter;
}

let unhealthy_teams t = t.unhealthy
let data_loss_risk t = t.zero_replica

(* ---------- health monitoring ---------- *)

let probe t =
  let checks =
    Array.to_list
      (Array.mapi
         (fun i ep ->
           Future.catch
             (fun () ->
               let* reply =
                 Context.rpc t.ctx ~timeout:1.0 ~from:t.proc ep Message.Ss_stats_req
               in
               match reply with
               | Message.Ss_stats _ -> Future.return (i, true)
               | _ -> Future.return (i, false))
             (fun _ -> Future.return (i, false)))
         t.ctx.Context.storage_eps)
  in
  let* results = Future.all checks in
  List.iter (fun (i, ok) -> t.alive_ss.(i) <- ok) results;
  let teams = Shard_map.tag_teams t.ctx.Context.shard_map in
  let unhealthy = ref 0 and zero = ref false in
  Array.iter
    (fun team ->
      let live = List.length (List.filter (fun ss -> t.alive_ss.(ss)) team) in
      if live < List.length team then incr unhealthy;
      if live = 0 then zero := true)
    teams;
  if !unhealthy <> t.unhealthy || !zero <> t.zero_replica then
    Trace.emit "dd_team_health"
      [ ("unhealthy", string_of_int !unhealthy); ("zero_replica", string_of_bool !zero) ];
  t.unhealthy <- !unhealthy;
  t.zero_replica <- !zero;
  Registry.set_gauge t.obs_unhealthy (float_of_int !unhealthy);
  Registry.set_gauge t.obs_loss_risk (if !zero then 1.0 else 0.0);
  Future.return ()

let monitor_loop t =
  let rec loop () =
    if not t.running then Future.return ()
    else
      let* () = Engine.sleep 1.0 in
      let* () = probe t in
      loop ()
  in
  loop ()

(* ---------- shard movement ---------- *)

(* User-space key the marker transaction writes. Write-only, so it can
   never conflict; idempotent, so unknown-result retries are safe. *)
let move_marker_key = "\xfe/dd/move-marker"

let rec marker_commit db attempts =
  if attempts = 0 then Future.return None
  else begin
    let tx = Client.begin_tx db in
    Client.set tx move_marker_key "";
    Future.catch
      (fun () ->
        let* cv = Client.commit tx in
        Future.return (Some cv))
      (fun _ ->
        let* () = Engine.sleep 0.1 in
        marker_commit db (attempts - 1))
  end

(* Poll read versions until one at or above [cv]: that GRV is committed and
   survives recovery, so a snapshot fetched at it is phantom-free. *)
let rec readable_version db cv attempts =
  if attempts = 0 then Future.return None
  else
    Future.catch
      (fun () ->
        let tx = Client.begin_tx db in
        let* v, epoch = Client.read_snapshot tx in
        if v >= cv then Future.return (Some (v, epoch))
        else
          let* () = Engine.sleep 0.05 in
          readable_version db cv (attempts - 1))
      (fun _ ->
        let* () = Engine.sleep 0.2 in
        readable_version db cv (attempts - 1))

(* Standalone so the swarm's mover job can fire moves without a DD handle.
   Sequencing: begin_move (dual-tagging on) -> marker txn -> readable
   snapshot version -> parallel newcomer fetches -> commit_move (or abort on
   any failure). *)
let move_shard ctx ~proc ~db ~lo ~dst =
  let map = ctx.Context.shard_map in
  match Shard_map.begin_move map ~lo ~dst with
  | Error e -> Future.return (Error e)
  | Ok (lo, hi, src_team) ->
      let newcomers = List.filter (fun ss -> not (List.mem ss src_team)) dst in
      let abort reason =
        (match Shard_map.abort_move map ~lo with
        | Ok () -> Trace.emit "dd_move_aborted" [ ("lo", String.escaped lo); ("reason", reason) ]
        | Error _ -> () (* a reconciliation pass beat us to it *));
        Future.return (Error reason)
      in
      let commit () =
        match Shard_map.commit_move map ~lo ~dst with
        | Ok () ->
            Trace.emit "dd_move_committed"
              [ ("lo", String.escaped lo); ("hi", String.escaped hi);
                ("dst", String.concat "," (List.map string_of_int dst)) ];
            Future.return (Ok ())
        | Error e -> Future.return (Error e)
      in
      if newcomers = [] then commit () (* pure shrink/permute: data already placed *)
      else
        let* cv = marker_commit db 5 in
        (match cv with
        | None -> abort "marker transaction failed"
        | Some cv -> (
            let* snap = readable_version db cv 100 in
            match snap with
            | None -> abort "snapshot version never became readable"
            | Some (version, epoch) ->
                let* acks =
                  Future.all
                    (List.map
                       (fun ss ->
                         Future.catch
                           (fun () ->
                             let* reply =
                               Context.rpc ctx ~timeout:20.0 ~from:proc
                                 ctx.Context.storage_eps.(ss)
                                 (Message.Ss_fetch_shard
                                    {
                                      fs_from = lo;
                                      fs_until = hi;
                                      fs_version = version;
                                      fs_epoch = epoch;
                                      fs_sources = src_team;
                                    })
                             in
                             match reply with
                             | Message.Ss_fetch_ack _ -> Future.return true
                             | _ -> Future.return false)
                           (fun _ -> Future.return false))
                       newcomers)
                in
                if List.for_all (fun ok -> ok) acks then commit ()
                else abort "newcomer fetch failed"))

(* ---------- rebalancing (splits, merges, moves under skew) ---------- *)

let hex_of_key k =
  String.concat "" (List.init (String.length k) (fun i -> Printf.sprintf "%02x" (Char.code k.[i])))

(* Read+write byte delta for [ss]'s copy of the shard at [lo] since the
   last sample (per-shard counters are published by the storage servers). *)
let traffic_delta t ss lo =
  let hex = hex_of_key lo in
  let cur =
    Registry.counter_value t.ctx.Context.metrics ~role:Registry.Storage ~process:ss
      (Printf.sprintf "shard_read_bytes:%s" hex)
    + Registry.counter_value t.ctx.Context.metrics ~role:Registry.Storage ~process:ss
        (Printf.sprintf "shard_write_bytes:%s" hex)
  in
  let key = Printf.sprintf "%d/%s" ss hex in
  let prev = Option.value ~default:0 (Det_tbl.find_opt t.prev_traffic key) in
  Det_tbl.replace t.prev_traffic key cur;
  max 0 (cur - prev)

let shard_size t team lo =
  List.fold_left
    (fun acc ss ->
      match
        Registry.gauge_value t.ctx.Context.metrics ~role:Registry.Storage ~process:ss
          (Printf.sprintf "shard_size_bytes:%s" (hex_of_key lo))
      with
      | Some v -> max acc (int_of_float v)
      | None -> acc)
    0 team

let split_point t team ~from ~until =
  let rec ask = function
    | [] -> Future.return None
    | ss :: rest ->
        Future.catch
          (fun () ->
            let* reply =
              Context.rpc t.ctx ~timeout:2.0 ~from:t.proc t.ctx.Context.storage_eps.(ss)
                (Message.Ss_split_point { spl_from = from; spl_until = until })
            in
            match reply with
            | Message.Ss_split_point_reply { spl_key = Some k } -> Future.return (Some k)
            | _ -> ask rest)
          (fun _ -> ask rest)
  in
  ask team

let machine_of t ss = ss / t.ctx.Context.config.Config.storage_per_machine

(* One rebalance pass. Deterministic: all scans are in array-index or
   key-sorted order, ties resolve to the lowest index. At most one split,
   one merge, and one move per pass keeps the schedule easy to reason about
   (and keeps the double-run checksum oracle meaningful). *)
let rebalance_tick t =
  let map = t.ctx.Context.shard_map in
  let policy = t.ctx.Context.config.Config.dd in
  let interval = policy.Config.rebalance_interval in
  (* Reconcile: abort moves whose mover evidently died. *)
  List.iter
    (fun (lo, _, _, started) ->
      if Engine.now () -. started > Params.dd_move_timeout then
        match Shard_map.abort_move map ~lo with
        | Ok () ->
            Registry.incr t.obs_aborts;
            Trace.emit "dd_move_reconciled" [ ("lo", String.escaped lo) ]
        | Error _ -> ())
    (Shard_map.pending_moves map);
  let ranges = Shard_map.ranges map in
  let teams = Shard_map.tag_teams map in
  let n = Array.length ranges in
  let moving lo =
    List.exists (fun (mlo, _, _, _) -> mlo = lo) (Shard_map.pending_moves map)
  in
  (* Sample per-shard traffic once per tick (the delta consumes the sample,
     so every decision below reuses these numbers). *)
  let traffic = Array.make n 0 in
  let sizes = Array.make n 0 in
  for i = 0 to n - 1 do
    let lo, _ = ranges.(i) in
    traffic.(i) <-
      List.fold_left (fun acc ss -> acc + traffic_delta t ss lo) 0 teams.(i);
    sizes.(i) <- shard_size t teams.(i) lo
  done;
  let bandwidth i = float_of_int traffic.(i) /. interval in
  let user_space i = fst ranges.(i) < Types.key_space_end in
  (* Split: the first user-space shard over a threshold. *)
  let* () =
    let candidate = ref None in
    for i = n - 1 downto 0 do
      if
        user_space i && (not (moving (fst ranges.(i))))
        && (sizes.(i) > policy.Config.split_bytes
            || bandwidth i > policy.Config.split_bandwidth)
      then candidate := Some i
    done;
    match !candidate with
    | None -> Future.return ()
    | Some i ->
        let lo, hi = ranges.(i) in
        let until = if hi < Types.key_space_end then hi else Types.key_space_end in
        let* at = split_point t teams.(i) ~from:lo ~until in
        (match at with
        | Some at -> (
            (* fdb-lint: allow R5 -- Context.shard_map is an immutable field: map is a stable handle; every Shard_map operation re-reads its contents *)
            match Shard_map.split map ~at with
            | Ok () ->
                Registry.incr t.obs_splits;
                Trace.emit "dd_shard_split"
                  [ ("at", String.escaped at);
                    ("size", string_of_int sizes.(i));
                    ("bw", Printf.sprintf "%.0f" (bandwidth i)) ]
            | Error _ -> ())
        | None -> ());
        Future.return ()
  in
  (* Merge: the first cold adjacent same-team pair, while staying at or
     above the deployment's initial shard count. *)
  if Shard_map.shard_count map > t.min_shards then begin
    let candidate = ref None in
    for i = n - 2 downto 0 do
      if
        user_space i && user_space (i + 1)
        && List.sort compare teams.(i) = List.sort compare teams.(i + 1)
        && (not (moving (fst ranges.(i))))
        && (not (moving (fst ranges.(i + 1))))
        (* fdb-lint: allow R5 -- Config.t is immutable: the policy cannot go stale across the split yield *)
        && sizes.(i) < policy.Config.merge_bytes
        && sizes.(i + 1) < policy.Config.merge_bytes
        && traffic.(i) + traffic.(i + 1) = 0
      then candidate := Some i
    done;
    match !candidate with
    | None -> ()
    | Some i -> (
        match Shard_map.merge_at map ~lo:(fst ranges.(i)) with
        | Ok () ->
            Registry.incr t.obs_merges;
            Trace.emit "dd_shard_merged" [ ("lo", String.escaped (fst ranges.(i))) ]
        | Error _ -> ())
  end;
  (* Move: when the hottest server carries imbalance_ratio x the coldest
     server's load, swap it out of its hottest shard's team for the coldest
     server (single-replica swap: only the newcomer fetches). *)
  let n_ss = Array.length t.ctx.Context.storage_eps in
  let load = Array.make n_ss 0 in
  for i = 0 to n - 1 do
    List.iter (fun ss -> load.(ss) <- load.(ss) + traffic.(i)) teams.(i)
  done;
  let hot = ref 0 and cold = ref 0 in
  for ss = 1 to n_ss - 1 do
    if load.(ss) > load.(!hot) then hot := ss;
    if load.(ss) < load.(!cold) then cold := ss
  done;
  if
    Shard_map.pending_moves map = []
    && float_of_int load.(!hot)
       > policy.Config.imbalance_ratio *. float_of_int (max load.(!cold) 1)
    && load.(!hot) > 0
  then begin
    (* Hottest user-space shard served by the hot server whose team lacks
       the cold server and whose machine-disjointness survives the swap. *)
    let best = ref (-1) in
    for i = n - 1 downto 0 do
      if
        user_space i
        && List.mem !hot teams.(i)
        && (not (List.mem !cold teams.(i)))
        && (not (moving (fst ranges.(i))))
        && (!best < 0 || traffic.(i) >= traffic.(!best))
      then best := i
    done;
    if !best >= 0 then begin
      let i = !best in
      let rest = List.filter (fun ss -> ss <> !hot) teams.(i) in
      let dst = List.sort compare (!cold :: rest) in
      let machines = List.map (machine_of t) dst in
      if List.length (List.sort_uniq compare machines) = List.length machines then begin
        Trace.emit "dd_move_started"
          [ ("lo", String.escaped (fst ranges.(i)));
            ("hot", string_of_int !hot); ("cold", string_of_int !cold) ];
        let* r = move_shard t.ctx ~proc:t.proc ~db:t.db ~lo:(fst ranges.(i)) ~dst in
        (match r with
        | Ok () -> Registry.incr t.obs_moves
        | Error _ -> Registry.incr t.obs_aborts);
        Future.return ()
      end
      else Future.return ()
    end
    else Future.return ()
  end
  else Future.return ()

let rebalance_loop t =
  let rec loop () =
    if not t.running then Future.return ()
    else
      let* () = Engine.sleep t.ctx.Context.config.Config.dd.Config.rebalance_interval in
      let* () =
        if t.ctx.Context.dd_movement then
          Future.catch
            (fun () -> rebalance_tick t)
            (fun exn ->
              Trace.emit "dd_rebalance_error" [ ("exn", Printexc.to_string exn) ];
              Future.return ())
        else Future.return ()
      in
      loop ()
  in
  loop ()

let handle _t (msg : Message.t) : Message.t Future.t =
  match msg with
  | Message.Seq_ping -> Future.return Message.Ok_reply
  | _ -> Future.return (Message.Reject (Error.Internal "dd: unexpected message"))

let create ctx proc =
  let ep = Network.fresh_endpoint ctx.Context.net in
  let metrics = ctx.Context.metrics in
  let role = Registry.Data_distributor in
  let t =
    {
      ctx;
      proc;
      ep;
      db = Client.create_db ctx proc;
      alive_ss = Array.make (Array.length ctx.Context.storage_eps) true;
      unhealthy = 0;
      zero_replica = false;
      running = true;
      min_shards = Shard_map.shard_count ctx.Context.shard_map;
      prev_traffic = Det_tbl.create ~size:64 ();
      obs_unhealthy = Registry.gauge metrics ~role ~process:0 "unhealthy_teams";
      obs_loss_risk = Registry.gauge metrics ~role ~process:0 "data_loss_risk";
      obs_splits = Registry.counter metrics ~role ~process:0 "shards_split";
      obs_merges = Registry.counter metrics ~role ~process:0 "shards_merged";
      obs_moves = Registry.counter metrics ~role ~process:0 "moves_committed";
      obs_aborts = Registry.counter metrics ~role ~process:0 "moves_aborted";
    }
  in
  Registry.set_gauge t.obs_unhealthy 0.0;
  Registry.set_gauge t.obs_loss_risk 0.0;
  Network.register ctx.Context.net ep proc (handle t);
  Engine.spawn ~process:proc "data-distributor" (fun () -> monitor_loop t);
  Engine.spawn ~process:proc "dd-rebalance" (fun () -> rebalance_loop t);
  (t, ep)
