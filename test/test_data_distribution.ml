(* Active data distribution (paper §2.3.1, §2.5): DD health metrics, the
   generation / Wrong_shard re-resolution contract, cutover atomicity of
   fetch-then-cutover moves, and the move-during-everything swarm. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Registry = Fdb_obs.Registry
module Status = Fdb_workloads.Status
module Swarm = Fdb_workloads.Swarm

let probe_proc name =
  let machine = Process.fresh_machine ~dc:"dc1" 910_000 in
  Process.create ~name machine

(* ---------- DD health metrics registration ---------- *)

let test_dd_metrics_registered () =
  let st, unhealthy, loss_risk, moves =
    Engine.run ~seed:19L ~max_time:1e4 (fun () ->
        let cluster = Cluster.create ~config:Config.test_small () in
        let* () = Cluster.wait_ready cluster in
        (* Let the DD singleton finish recruiting and publish its gauges. *)
        let* () = Engine.sleep 3.0 in
        let reg = Cluster.metrics cluster in
        let g name =
          Registry.gauge_value reg ~role:Registry.Data_distributor ~process:0 name
        in
        let* st = Status.gather cluster in
        Future.return
          ( st, g "unhealthy_teams", g "data_loss_risk",
            Registry.counters reg ~role:Registry.Data_distributor "moves_committed" ))
  in
  Alcotest.(check bool) "unhealthy_teams gauge registered" true (unhealthy <> None);
  Alcotest.(check bool) "data_loss_risk gauge registered" true (loss_risk <> None);
  Alcotest.(check bool) "moves_committed counter registered" true (moves <> []);
  Alcotest.(check bool) "status sees the DD" true st.Status.st_dd_recruited;
  Alcotest.(check int) "healthy cluster: no unhealthy teams" 0
    st.Status.st_unhealthy_teams;
  Alcotest.(check bool) "no data-loss risk" false st.Status.st_data_loss_risk

(* ---------- a dead storage server shows in both health views ---------- *)

(* The DD's team health comes from [Context.ping], the status report's
   responsive count from [Storage_server.live_load]'s heartbeat gauges: a
   killed server must drop out of both within 3 s and come back to both
   after a reboot. *)
let test_dead_storage_both_views () =
  let view st = (st.Status.st_unhealthy_teams, st.Status.st_storage_responsive) in
  let total, healthy, dead, rebooted =
    Engine.run ~seed:23L ~max_time:1e4 (fun () ->
        let cluster = Cluster.create ~config:Config.default () in
        let* () = Cluster.wait_ready cluster in
        let* () = Engine.sleep 3.0 in
        let* healthy = Status.gather cluster in
        let victim =
          Array.to_list (Cluster.worker_machines cluster)
          |> List.concat_map (fun m -> m.Process.machine_processes)
          |> List.find (fun p ->
                 p.Process.alive && String.starts_with ~prefix:"storage-" p.Process.name)
        in
        Engine.kill victim;
        let* () = Engine.sleep 3.0 in
        let* dead = Status.gather cluster in
        Engine.reboot victim ~delay:0.5 ();
        let* () = Engine.sleep 5.0 in
        let* rebooted = Status.gather cluster in
        Future.return (healthy.Status.st_storage_total, view healthy, view dead, view rebooted))
  in
  Alcotest.(check (pair int int)) "healthy: no unhealthy team, all responsive" (0, total)
    healthy;
  Alcotest.(check bool) "dead: the DD's ping marks a team unhealthy" true (fst dead >= 1);
  Alcotest.(check int) "dead: live_load drops the server" (total - 1) (snd dead);
  Alcotest.(check (pair int int)) "rebooted: healthy again" (0, total) rebooted

(* ---------- set_team bumps generation; stale reads get Wrong_shard ---------- *)

let test_stale_generation_wrong_shard () =
  let gen_bumped, updates_emitted, stale_reply, value =
    Engine.run ~seed:21L ~max_time:1e4 (fun () ->
        let cluster = Cluster.create ~config:Config.test_small () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"dd-test" in
        let* _ = Client.run db (fun tx -> Client.set tx "dd/x" "v"; Future.return ()) in
        (* let every replica drain the log before shrinking the team *)
        let* () = Engine.sleep 1.0 in
        let ctx = Cluster.context cluster in
        let sm = ctx.Context.shard_map in
        let g0 = Shard_map.generation sm in
        let upd0 = Trace.count "shard_map_update" in
        let team = Shard_map.team_for_key sm "dd/x" in
        let keep = List.fold_left min (List.hd team) team in
        let dropped = List.filter (fun s -> s <> keep) team in
        let ranges = Shard_map.ranges sm in
        let idx = ref 0 in
        Array.iteri
          (fun i (lo, hi) -> if lo <= "dd/x" && "dd/x" < hi then idx := i)
          ranges;
        Shard_map.set_team sm ~shard:!idx ~team:[ keep ];
        let gen_bumped = Shard_map.generation sm > g0 in
        let updates = Trace.count "shard_map_update" > upd0 in
        (* A read resolved against the old generation lands on a server that
           no longer serves the shard: it must answer Wrong_shard. *)
        let* version, epoch = Client.run db (fun tx -> Client.read_snapshot tx) in
        let proc = probe_proc "stale-reader" in
        let* reply =
          Future.catch
            (fun () ->
              let* r =
                Context.rpc ctx ~timeout:2.0 ~from:proc
                  ctx.Context.storage_eps.(List.hd dropped)
                  (Message.Storage_get
                     { key = "dd/x"; version; rv_epoch = epoch; may_bounce = false })
              in
              ignore r;
              Future.return `Served)
            (function
              | Error.Fdb Error.Wrong_shard -> Future.return `Wrong_shard
              | e -> Future.return (`Other (Printexc.to_string e)))
        in
        (* ...and a live client re-resolves transparently. *)
        let* value = Client.run db (fun tx -> Client.get tx "dd/x") in
        Future.return (gen_bumped, updates, reply, value))
  in
  Alcotest.(check bool) "set_team bumps generation" true gen_bumped;
  Alcotest.(check bool) "set_team emits shard_map_update" true updates_emitted;
  (match stale_reply with
  | `Wrong_shard -> ()
  | `Served -> Alcotest.fail "stale replica served the read"
  | `Other e -> Alcotest.failf "expected Wrong_shard, got %s" e);
  Alcotest.(check (option string)) "client re-resolves and reads" (Some "v") value

(* ---------- cutover atomicity ---------- *)

(* While a fetch-then-cutover move runs, a reader hammering the moved range
   must never observe a half-moved shard: every read returns the complete
   row set, before, during, and after the cutover. *)
let test_cutover_atomicity () =
  let move_result, reads, bad_reads, team_changed =
    Engine.run ~seed:31L ~max_time:1e4 (fun () ->
        let cluster = Cluster.create ~config:Config.test_small () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"mv-writer" in
        let keys = List.init 24 (fun i -> Printf.sprintf "mv/%03d" i) in
        let expected = List.map (fun k -> (k, "v" ^ k)) keys in
        let* _ =
          Client.run db (fun tx ->
              List.iter (fun (k, v) -> Client.set tx k v) expected;
              Future.return ())
        in
        let* () = Engine.sleep 1.0 in
        let ctx = Cluster.context cluster in
        let sm = ctx.Context.shard_map in
        let lo, _ = Shard_map.shard_range_for_key sm "mv/000" in
        let src = Shard_map.team_for_key sm "mv/000" in
        let n_ss = Array.length ctx.Context.storage_eps in
        let missing =
          List.filter (fun s -> not (List.mem s src)) (List.init n_ss Fun.id)
        in
        (* swap one member out for a newcomer: a genuine snapshot fetch *)
        let dst = List.sort compare (List.hd missing :: List.tl src) in
        let stop = ref false in
        let reads = ref 0 in
        let bad = ref 0 in
        let reader_db = Cluster.client cluster ~name:"mv-reader" in
        let rec reader () =
          if !stop then Future.return ()
          else
            let* rows =
              Client.run reader_db (fun tx ->
                  Client.range_all tx (Range_query.prefix ~limit:500 "mv/" ()))
            in
            incr reads;
            if rows <> expected then incr bad;
            reader ()
        in
        let reader_done = reader () in
        let proc = probe_proc "mv-mover" in
        let* res = Data_distributor.move_shard ctx ~proc ~db ~lo ~dst in
        (* keep reading a little past the cutover *)
        let* () = Engine.sleep 1.0 in
        stop := true;
        let* () = reader_done in
        Future.return (res, !reads, !bad, Shard_map.team_for_key sm "mv/000" = dst))
  in
  (match move_result with
  | Ok () -> ()
  | Error m -> Alcotest.failf "move failed: %s" m);
  Alcotest.(check bool) "reads happened during the move" true (reads > 0);
  Alcotest.(check int) "no read observed a half-moved shard" 0 bad_reads;
  Alcotest.(check bool) "destination serves after cutover" true team_changed

(* ---------- atomic ops that race a newcomer's fetch ---------- *)

(* From begin_move on, a newcomer applies the moving range's stream, but an
   atomic op it applies before its snapshot lands has no base to apply to.
   Commit atomic adds while the fetch is slowed (the sources are busy, so
   the newcomer's drain waits on them): once the move settles, committed
   or aborted, every replica of the key's team must hold the committed
   sum. *)
let test_atomic_ops_during_fetch () =
  let want, got =
    Engine.run ~seed:37L ~max_time:1e4 (fun () ->
        let cluster = Cluster.create ~config:Config.test_small () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"at-writer" in
        let key = "at/counter" in
        let le n = String.init 8 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff)) in
        let* () = Client.run db (fun tx -> Client.set tx key (le 1000); Future.return ()) in
        let* () = Engine.sleep 1.0 in
        let ctx = Cluster.context cluster in
        let sm = ctx.Context.shard_map in
        let lo, _ = Shard_map.shard_range_for_key sm key in
        let src = Shard_map.team_for_key sm key in
        let n_ss = Array.length ctx.Context.storage_eps in
        let newcomer = List.find (fun s -> not (List.mem s src)) (List.init n_ss Fun.id) in
        let dst = List.sort compare (newcomer :: List.tl src) in
        (* Keep the sources' cores busy for a while (under the load-shedding
           bound): the fetch's drain waits behind that work. *)
        let ss_proc ss =
          List.find
            (fun p -> p.Process.name = Printf.sprintf "storage-%d" ss)
            (Cluster.worker_machines cluster).(ss / ctx.Context.config.Config.storage_per_machine)
              .Process.machine_processes
        in
        let hogs = List.map (fun ss -> Engine.cpu (ss_proc ss) 0.5) src in
        let stop = ref false and adds = ref 0 in
        let rec writer () =
          if !stop then Future.return ()
          else
            let* () =
              Client.run db (fun tx ->
                  Client.atomic_op tx Fdb_kv.Mutation.Add key (le 1);
                  Future.return ())
            in
            incr adds;
            let* () = Engine.sleep 0.05 in
            writer ()
        in
        let writer_done = writer () in
        let* _moved =
          Data_distributor.move_shard ctx ~proc:(probe_proc "at-mover") ~db ~lo ~dst
        in
        stop := true;
        let* () = writer_done in
        let* () = Future.all_unit hogs in
        let* () = Engine.sleep 1.0 in
        let* version, rv_epoch = Client.run db (fun tx -> Client.read_snapshot tx) in
        let proc = probe_proc "at-reader" in
        let* got =
          Future.all
            (List.map
               (fun ss ->
                 let+ value =
                   Context.rpc ctx ~timeout:2.0 ~from:proc ctx.Context.storage_eps.(ss)
                     (Message.Storage_get { key; version; rv_epoch; may_bounce = false })
                 in
                 (ss, Option.map (fun v -> Char.code v.[0] + (256 * Char.code v.[1])) value))
               (Shard_map.team_for_key sm key))
        in
        Future.return (1000 + !adds, got))
  in
  List.iter
    (fun (ss, v) ->
      Alcotest.(check (option int)) (Printf.sprintf "ss %d holds the committed sum" ss)
        (Some want) v)
    got

(* ---------- two move-in floors from one start key, then a reboot ---------- *)

(* A server S joins a shard's team by a fetch at v1 while atomic adds to a
   key in the shard's upper half are committed (dual-tagged to S, below v1).
   The shard then splits at that key and its lower half moves off S and
   back, so S fetches again from the same start key at v2. S's machine
   reboots before S's durable version passes v1: the replayed adds must
   stay hidden under v1's floor, so every replica holds the committed sum. *)
let test_same_start_refetch_then_reboot () =
  let le n = String.init 8 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff)) in
  let le_int v = Char.code v.[0] + (256 * Char.code v.[1]) in
  let below_floor, want, total, got =
    Engine.run ~seed:41L ~max_time:1e4 (fun () ->
        let cluster = Cluster.create ~config:Config.test_small () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"rf-writer" in
        let ctx = Cluster.context cluster in
        let sm = ctx.Context.shard_map in
        let proc = probe_proc "rf-mover" in
        let key = "rf/counter" in
        let* () = Client.run db (fun tx -> Client.set tx key (le 1000); Future.return ()) in
        let* () = Engine.sleep 1.0 in
        let lo, _ = Shard_map.shard_range_for_key sm key in
        let src = Shard_map.team_for_key sm key in
        let n_ss = Array.length ctx.Context.storage_eps in
        let s = List.find (fun ss -> not (List.mem ss src)) (List.init n_ss Fun.id) in
        let dst = List.sort compare (s :: List.tl src) in
        (* The first move, by hand so every add lands below the fetch
           version: begin_move dual-tags the adds to S. *)
        let lo, hi, src_team = Result.get_ok (Shard_map.begin_move sm ~lo ~dst) in
        let adds = 20 in
        let rec add n =
          if n = 0 then Future.return ()
          else
            let* () =
              Client.run db (fun tx ->
                  Client.atomic_op tx Fdb_kv.Mutation.Add key (le 1);
                  Future.return ())
            in
            add (n - 1)
        in
        let* () = add adds in
        let* v1, epoch = Client.run db (fun tx -> Client.read_snapshot tx) in
        let* () =
          Context.rpc ctx ~timeout:20.0 ~from:proc ctx.Context.storage_eps.(s)
            (Message.Ss_fetch_shard
               { fs_from = lo; fs_until = hi; fs_version = v1; fs_epoch = epoch;
                 fs_sources = src_team })
        in
        ignore (Result.get_ok (Shard_map.commit_move sm ~lo ~dst) : unit);
        (* Split at the counter; its lower half moves off S and back, so S
           fetches [lo, key) from the same start key. *)
        ignore (Result.get_ok (Shard_map.split sm ~at:key) : unit);
        let* off = Data_distributor.move_shard ctx ~proc ~db ~lo ~dst:(List.sort compare src_team) in
        let* back = Data_distributor.move_shard ctx ~proc ~db ~lo ~dst in
        if off <> Ok () || back <> Ok () then Alcotest.fail "a lower-half move failed";
        let* { Message.ss_durable; _ } =
          Context.rpc ctx ~timeout:2.0 ~from:proc ctx.Context.storage_eps.(s) Message.Ss_stats_req
        in
        Fault_injector.reboot_machine ~delay:0.5
          (Cluster.worker_machines cluster).(s / ctx.Context.config.Config.storage_per_machine);
        let* () = Engine.sleep 5.0 in
        let* total = Client.run db (fun tx -> Client.get tx key) in
        let* version, rv_epoch = Client.run db (fun tx -> Client.read_snapshot tx) in
        let* got =
          Future.all
            (List.map
               (fun ss ->
                 let+ value =
                   Context.rpc ctx ~timeout:2.0 ~from:proc ctx.Context.storage_eps.(ss)
                     (Message.Storage_get { key; version; rv_epoch; may_bounce = false })
                 in
                 (ss, Option.map le_int value))
               (Shard_map.team_for_key sm key))
        in
        Future.return (ss_durable < v1, 1000 + adds, Option.map le_int total, got))
  in
  Alcotest.(check bool) "S rebooted below its first fetch version" true below_floor;
  Alcotest.(check (option int)) "the counter total" (Some want) total;
  List.iter
    (fun (ss, v) ->
      Alcotest.(check (option int)) (Printf.sprintf "ss %d holds the committed sum" ss)
        (Some want) v)
    got

(* ---------- an older snapshot over a newer floor is refused ---------- *)

(* A server S joins a shard's team (begin_move dual-tags it). A key holds
   "old" at v1 and is cleared before v2. S fetches the whole shard at v2,
   then a sub-range holding the key at v1. Installing the older snapshot
   would put "old" back in S's image while the v2 floor still hides the
   clear in its window, so once the move commits S would read "old" at v2.
   The second fetch must be refused, and S must read the key as cleared. *)
let test_older_overlapping_fetch_refused () =
  let refused, fired, got =
    Engine.run ~seed:43L ~max_time:1e4 (fun () ->
        let cluster = Cluster.create ~config:Config.test_small () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"of-writer" in
        let ctx = Cluster.context cluster in
        let sm = ctx.Context.shard_map in
        let proc = probe_proc "of-mover" in
        let key = "of/key" in
        let* () = Client.run db (fun tx -> Client.set tx key "old"; Future.return ()) in
        let lo, _ = Shard_map.shard_range_for_key sm key in
        let src = Shard_map.team_for_key sm key in
        let n_ss = Array.length ctx.Context.storage_eps in
        let s = List.find (fun ss -> not (List.mem ss src)) (List.init n_ss Fun.id) in
        let dst = List.sort compare (s :: List.tl src) in
        let lo, hi, src_team = Result.get_ok (Shard_map.begin_move sm ~lo ~dst) in
        let* v1, _ = Client.run db (fun tx -> Client.read_snapshot tx) in
        let* () = Client.run db (fun tx -> Client.clear tx key; Future.return ()) in
        let* v2, epoch = Client.run db (fun tx -> Client.read_snapshot tx) in
        let fetch ~until version =
          Context.rpc ctx ~timeout:20.0 ~from:proc ctx.Context.storage_eps.(s)
            (Message.Ss_fetch_shard
               { fs_from = lo; fs_until = until; fs_version = version; fs_epoch = epoch;
                 fs_sources = src_team })
        in
        let* () = fetch ~until:hi v2 in
        let* refused =
          Future.catch
            (fun () ->
              let+ () = fetch ~until:(Types.next_key key) v1 in
              false)
            (fun _ -> Future.return true)
        in
        ignore (Result.get_ok (Shard_map.commit_move sm ~lo ~dst) : unit);
        let+ got =
          Context.rpc ctx ~timeout:2.0 ~from:proc ctx.Context.storage_eps.(s)
            (Message.Storage_get { key; version = v2; rv_epoch = epoch; may_bounce = false })
        in
        (refused, Trace.count "ss_fetch_below_floor", got))
  in
  Alcotest.(check bool) "the older fetch is refused" true refused;
  Alcotest.(check int) "the refusal is traced" 1 fired;
  Alcotest.(check (option string)) "S reads the key as cleared at v2" None got

(* ---------- move-during-everything swarm ---------- *)

(* Bank, ring and the random-ops soup run under fault injection and
   buggification while the rebalancer and the mover job split, merge and
   move shards continuously; every oracle must still pass. *)
let test_move_during_everything () =
  List.iter
    (fun seed ->
      let r = Swarm.run_one ~buggify:true ~duration:6.0 ~dd_movement:true ~seed () in
      if r.Swarm.oracle_failures <> [] then
        Alcotest.failf "seed %Ld: %s" seed (String.concat "; " r.Swarm.oracle_failures))
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]

let suite =
  [
    Alcotest.test_case "dd metrics registered" `Quick test_dd_metrics_registered;
    Alcotest.test_case "a dead storage server shows in both views" `Quick
      test_dead_storage_both_views;
    Alcotest.test_case "stale generation gets Wrong_shard" `Quick
      test_stale_generation_wrong_shard;
    Alcotest.test_case "cutover atomicity" `Quick test_cutover_atomicity;
    Alcotest.test_case "atomic ops during a fetch" `Quick test_atomic_ops_during_fetch;
    Alcotest.test_case "same-start refetch, then a reboot" `Quick
      test_same_start_refetch_then_reboot;
    Alcotest.test_case "older overlapping fetch refused" `Quick
      test_older_overlapping_fetch_refused;
    Alcotest.test_case "move during everything" `Slow test_move_during_everything;
  ]
