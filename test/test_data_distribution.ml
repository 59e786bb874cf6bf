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
                  (Message.Storage_get { key = "dd/x"; version; rv_epoch = epoch })
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
    Alcotest.test_case "stale generation gets Wrong_shard" `Quick
      test_stale_generation_wrong_shard;
    Alcotest.test_case "cutover atomicity" `Quick test_cutover_atomicity;
    Alcotest.test_case "move during everything" `Slow test_move_during_everything;
  ]
