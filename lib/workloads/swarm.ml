open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng

type report = {
  seed : int64;
  machines : int;
  storage_per_machine : int;
  epochs : int;
  transfers : int;
  rotations : int;
  soup_committed : int;
  dd_moves : int;
  layer_ops : int;
  shard_checksum : int64;
  oracle_failures : string list;
  buggify_points : string list;
  trace_checksum : int64;
  lifecycle : Future.Lifecycle.report;
}

let random_config rng =
  let machines = 4 + Rng.int rng 5 in
  let replication = 2 + Rng.int rng 2 in
  {
    Config.machines;
    coordinators = min machines (if Rng.bool rng then 3 else 5);
    proxies = 1 + Rng.int rng 2;
    resolvers = 1 + Rng.int rng 2;
    log_servers = min machines (replication + Rng.int rng 2);
    storage_per_machine = 1 + Rng.int rng 2;
    log_replication = replication;
    storage_replication = replication;
    mvcc_window = 5.0;
    shards_per_storage = 1 + Rng.int rng 3;
    cc_candidates = min machines 3;
    racks = 1 + Rng.int rng machines;
    disks_per_machine = 4;
    shard_boundaries = [];
    regions = 1;
  }

let random_faults rng duration =
  {
    Fault_injector.duration;
    kill_mean_interval = 8.0 +. Rng.float rng 20.0;
    reboot_min = 0.5;
    reboot_max = 2.0 +. Rng.float rng 8.0;
    rack_kill_prob = Rng.float rng 0.3;
    dc_kill_prob = 0.0;
    partition_mean_interval = 10.0 +. Rng.float rng 20.0;
    partition_duration = 1.0 +. Rng.float rng 6.0;
    clog_mean_interval = 5.0 +. Rng.float rng 10.0;
    clog_duration = 0.5 +. Rng.float rng 2.0;
  }

let accounts = 40
let initial_balance = 100
let ring_nodes = 30
let soup_keys = 50

(* -------- shard movement under chaos -------------------------------- *)

(* Aggressive DD thresholds for movement-enabled runs, restored afterwards
   so other tests see the defaults. *)
let with_dd_params ~enabled f =
  if not enabled then f ()
  else begin
    let saved =
      ( !Params.dd_movement_enabled, !Params.dd_rebalance_interval,
        !Params.dd_split_bytes, !Params.dd_split_bandwidth,
        !Params.dd_merge_bytes, !Params.dd_imbalance_ratio )
    in
    Params.dd_movement_enabled := true;
    Params.dd_rebalance_interval := 0.5;
    Params.dd_split_bytes := 4_000;
    Params.dd_split_bandwidth := 50_000.0;
    Params.dd_merge_bytes := 400;
    Params.dd_imbalance_ratio := 1.5;
    Fun.protect f ~finally:(fun () ->
        let en, iv, sb, sbw, mb, ir = saved in
        Params.dd_movement_enabled := en;
        Params.dd_rebalance_interval := iv;
        Params.dd_split_bytes := sb;
        Params.dd_split_bandwidth := sbw;
        Params.dd_merge_bytes := mb;
        Params.dd_imbalance_ratio := ir)
  end

let pick_team rng n k =
  let arr = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  List.sort compare (Array.to_list (Array.sub arr 0 (min k n)))

(* Fire splits, merges and full fetch-then-cutover moves continuously while
   the workloads and the fault storm run: the move-during-everything
   swarm. Moves run one at a time (each is awaited) so the schedule is a
   deterministic function of the seed. *)
let mover_job cluster ~until ~rng =
  let ctx = Cluster.context cluster in
  let db = Cluster.client cluster ~name:"swarm-mover" in
  let machine = Process.fresh_machine ~dc:"dc1" 900_002 in
  let proc = Process.create ~name:"swarm-mover" machine in
  let n_ss = Array.length ctx.Context.storage_eps in
  let moves = ref 0 in
  let rec loop () =
    if Engine.now () >= until then Future.return !moves
    else
      let* () = Engine.sleep (0.5 +. Rng.float rng 2.0) in
      let map = ctx.Context.shard_map in
      let ranges = Shard_map.ranges map in
      let i = Rng.int rng (Array.length ranges) in
      let lo, hi = ranges.(i) in
      if lo >= Types.key_space_end then loop ()
      else
        match Rng.int rng 4 with
        | 0 ->
            (* Split somewhere strictly inside the shard. *)
            let at = lo ^ "\x80" in
            if at < min hi Types.key_space_end then
              ignore (Shard_map.split map ~at : (unit, string) result);
            loop ()
        | 1 ->
            ignore (Shard_map.merge_at map ~lo : (unit, string) result);
            loop ()
        | _ ->
            let team_size = List.length (Shard_map.team_for_key map lo) in
            let dst = pick_team rng n_ss team_size in
            let* r = Data_distributor.move_shard ctx ~proc ~db ~lo ~dst in
            (match r with Ok () -> incr moves | Error _ -> ());
            loop ()
  in
  loop ()

(* Before the oracles run, stop new movement and let in-flight moves finish
   (or force-abort stragglers): the consistency check wants a world that is
   no longer flipping teams under it, and a pending move left behind would
   dual-tag writes forever. *)
let quiesce_movement ctx =
  Params.dd_movement_enabled := false;
  let map = ctx.Context.shard_map in
  let rec wait n =
    match Shard_map.pending_moves map with
    | [] -> Future.return ()
    | pending ->
        if n = 0 then begin
          List.iter
            (fun (lo, _, _, _) ->
              ignore (Shard_map.abort_move map ~lo : (unit, string) result))
            pending;
          Future.return ()
        end
        else
          let* () = Engine.sleep 1.0 in
          wait (n - 1)
  in
  wait 40

let run_one ?(buggify = true) ?(duration = 60.0) ?(dd_movement = false)
    ?(layers = false) ~seed () =
  with_dd_params ~enabled:dd_movement @@ fun () ->
  let report =
    Engine.run ~seed ~max_time:3600.0 ~buggify (fun () ->
      let rng = Engine.fork_rng () in
      let config = random_config rng in
      let cluster = Cluster.create ~config () in
      let* () = Cluster.wait_ready ~timeout:120.0 cluster in
      let db = Cluster.client cluster ~name:"swarm-setup" in
      let* () = Bank.setup db ~accounts ~initial:initial_balance in
      let* () = Ring.setup db ~n:ring_nodes in
      let checker = Serializability_checker.create () in
      let stop_at = Engine.now () +. duration in
      (* Workloads and faults run concurrently. Coordinators are protected
         from permanent loss only by reboots (the injector reboots all). *)
      let bank_db = Cluster.client cluster ~name:"swarm-bank" in
      let ring_db = Cluster.client cluster ~name:"swarm-ring" in
      let bank_job =
        Bank.transfer_loop bank_db ~accounts ~until:stop_at ~rng:(Rng.split rng)
      in
      let ring_job = Ring.rotate_loop ring_db ~n:ring_nodes ~until:stop_at ~rng:(Rng.split rng) in
      let soup_job =
        Random_ops.run_clients cluster ~clients:3 ~keys:soup_keys ~until:stop_at
          ~rng:(Rng.split rng) ~checker
      in
      let fault_job =
        Fault_injector.run ~net:(Cluster.context cluster).Context.net
          ~machines:(Cluster.worker_machines cluster)
          (random_faults rng duration)
      in
      let mover =
        if dd_movement then mover_job cluster ~until:stop_at ~rng:(Rng.split rng)
        else Future.return 0
      in
      (* Layer soak is gated exactly like the mover: with [layers] off, no
         RNG split, no client, no trace events — the run stays
         byte-identical to the pre-layer baseline. *)
      let layer_job =
        if layers then
          let* h = Layer_soak.run cluster ~until:stop_at ~rng:(Rng.split rng) () in
          Future.return (Some h)
        else Future.return None
      in
      let* bank_stats = bank_job
      and* ring_stats = ring_job
      and* soup_stats = soup_job
      and* dd_moves = mover
      and* layer_handle = layer_job
      and* () = fault_job in
      let* () =
        if dd_movement then quiesce_movement (Cluster.context cluster)
        else Future.return ()
      in
      (* Recoverability: after healing, the cluster must serve again. *)
      let* recoverable =
        Future.catch
          (fun () -> Future.map (Cluster.wait_ready ~timeout:120.0 cluster) (fun () -> true))
          (fun _ -> Future.return false)
      in
      let* failures =
        if not recoverable then Future.return [ "recoverability: cluster did not return" ]
        else begin
          let check_db = Cluster.client cluster ~name:"swarm-check" in
          let* bank_res =
            Bank.check check_db ~accounts ~expected_total:(accounts * initial_balance)
          in
          let* ring_res = Ring.check check_db ~n:ring_nodes in
          let* cons_res = Consistency_check.check cluster in
          let ser_res = Serializability_checker.verify checker in
          let* layer_res =
            match layer_handle with
            | None -> Future.return []
            | Some h -> Layer_soak.check cluster h
          in
          let collect name = function Ok () -> [] | Error m -> [ name ^ ": " ^ m ] in
          Future.return
            (collect "bank" bank_res @ collect "ring" ring_res
            @ collect "consistency" cons_res
            @ collect "serializability" ser_res
            @ List.map (fun m -> "layers: " ^ m) layer_res)
        end
      in
      (* Metrics-plane oracle: role statistics must satisfy their sanity
         invariants regardless of how the chaos went. *)
      let metrics_failures = Metrics_oracle.check (Cluster.metrics cluster) in
      let* epochs = Cluster.current_epoch cluster in
      Future.return
        {
          seed;
          machines = config.Config.machines;
          storage_per_machine = config.Config.storage_per_machine;
          epochs;
          transfers = bank_stats.Bank.transfers_committed;
          rotations = ring_stats.Ring.rotations;
          soup_committed = soup_stats.Random_ops.committed;
          dd_moves;
          layer_ops =
            (match layer_handle with None -> 0 | Some h -> Layer_soak.ops h);
          shard_checksum =
            Shard_map.history_checksum (Cluster.context cluster).Context.shard_map;
          oracle_failures = failures @ metrics_failures;
          buggify_points = Buggify.points_hit ();
          trace_checksum = 0L (* filled in once the run has fully drained *);
          lifecycle = Future.Lifecycle.empty (* ditto *);
        })
  in
  {
    report with
    trace_checksum = Engine.last_run_checksum ();
    lifecycle = Engine.last_run_lifecycle ();
  }

(* The paper's own nondeterminism detector: replay the seed and compare
   event-stream checksums — and, with movement on, the shard-map history
   checksum, so a diverging shard-move schedule fails even if it somehow
   produced the same event stream. Any divergence means something outside
   the seeded-RNG / virtual-time envelope leaked into the run. *)
let check_determinism ?buggify ?duration ?dd_movement ?layers ~seed () =
  let a = run_one ?buggify ?duration ?dd_movement ?layers ~seed () in
  let b = run_one ?buggify ?duration ?dd_movement ?layers ~seed () in
  if not (Int64.equal a.trace_checksum b.trace_checksum) then
    Error (a.trace_checksum, b.trace_checksum)
  else if not (Int64.equal a.shard_checksum b.shard_checksum) then
    Error (a.shard_checksum, b.shard_checksum)
  else Ok a

let pp_report fmt r =
  Format.fprintf fmt
    "seed=%Ld machines=%d per_machine=%d epochs=%d transfers=%d rotations=%d soup=%d \
     moves=%d csum=%016Lx shards=%016Lx %s"
    r.seed r.machines r.storage_per_machine r.epochs r.transfers r.rotations
    r.soup_committed r.dd_moves r.trace_checksum r.shard_checksum
    (if r.oracle_failures = [] then "PASS"
     else "FAIL [" ^ String.concat "; " r.oracle_failures ^ "]");
  if r.layer_ops > 0 then Format.fprintf fmt " layer_ops=%d" r.layer_ops;
  if r.buggify_points <> [] then
    Format.fprintf fmt " buggify={%s}" (String.concat "," r.buggify_points);
  let lc = r.lifecycle in
  if Future.Lifecycle.total_leaks lc > 0 then
    Format.fprintf fmt " leaks={%s}"
      (String.concat ","
         (List.map (fun (l, n) -> Printf.sprintf "%s:%d" l n) lc.Future.Lifecycle.lr_leaked));
  if lc.Future.Lifecycle.lr_detach_failures <> [] then
    Format.fprintf fmt " detach_failures={%s}"
      (String.concat ","
         (List.map
            (fun (l, n) -> Printf.sprintf "%s:%d" l n)
            lc.Future.Lifecycle.lr_detach_failures))
