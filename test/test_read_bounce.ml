(* A busy replica bounces a point read (DESIGN.md, "Client replica choice"):

   - the storage contract: a server whose CPU queue holds more than one
     point read refuses a bounceable [Storage_get] at once, charging no
     CPU, and serves the same read sent without [may_bounce];
   - the client: a read whose first choice is busy is served by the next
     replica and counted as a bounce, not a failover;
   - when every replica is busy, the last one serves, so nothing fails;
   - a dead last replica fails over to a replica that bounced the read,
     and the handle's in-flight counts return to 0. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Registry = Fdb_obs.Registry

let key = "rb/k"

(* More than one point read's work, far less than the read timeout. *)
let hog_s = 0.01

let with_cluster ~seed body =
  Engine.run ~seed ~max_time:1e4 (fun () ->
      let cluster = Cluster.create ~config:Config.test_small () in
      let* () = Cluster.wait_ready cluster in
      let db = Cluster.client cluster ~name:"bounce" in
      let* () = Client.run db (fun tx -> Client.set tx key "v"; Future.return ()) in
      (* Let every replica apply the write. *)
      let* () = Engine.sleep 1.0 in
      body cluster db)

let storage_proc cluster ss =
  let name = Printf.sprintf "storage-%d" ss in
  Cluster.worker_machines cluster
  |> Array.to_list
  |> List.concat_map (fun m -> m.Process.machine_processes)
  |> List.find (fun p -> p.Process.name = name)

(* Queue [hog_s] of CPU work on server [ss]'s core. *)
let hog cluster ss =
  ignore (Engine.cpu (storage_proc cluster ss) hog_s : unit Future.t)

let team cluster = Shard_map.team_for_key (Cluster.context cluster).Context.shard_map key

let served cluster ss =
  Registry.counter_value (Cluster.metrics cluster) ~role:Registry.Storage ~process:ss
    "reads"

let bounces cluster =
  Registry.sum_counter (Cluster.metrics cluster) ~role:Registry.Client "read_bounces"

let all_zero db = Array.for_all (( = ) 0) (Client.storage_inflight db)

let test_busy_server_refuses () =
  let refused, cpu_moved, served_value =
    with_cluster ~seed:31L (fun cluster db ->
        let ctx = Cluster.context cluster in
        let* version, rv_epoch = Client.run db (fun tx -> Client.read_snapshot tx) in
        let ss = List.hd (team cluster) in
        let proc = storage_proc cluster ss in
        let reader =
          Process.create ~name:"rb-reader" (Process.fresh_machine ~dc:"dc1" 920_000)
        in
        let get may_bounce =
          Future.catch
            (fun () ->
              let+ v =
                Context.rpc ctx ~timeout:2.0 ~from:reader ctx.Context.storage_eps.(ss)
                  (Message.Storage_get { key; version; rv_epoch; may_bounce })
              in
              Ok v)
            (function Error.Fdb e -> Future.return (Error e) | e -> Future.fail e)
        in
        hog cluster ss;
        let used = proc.Process.cpu_used in
        let* refused = get true in
        let cpu_moved = proc.Process.cpu_used <> used in
        let* served_value = get false in
        Future.return (refused, cpu_moved, served_value))
  in
  Alcotest.(check bool) "a bounceable read is refused with Process_behind" true
    (refused = Error Error.Process_behind);
  Alcotest.(check bool) "the refusal charges no CPU" false cpu_moved;
  Alcotest.(check bool) "the same read without may_bounce is served" true
    (served_value = Ok (Some "v"))

let test_busy_first_choice_bounces () =
  (* One replica is kept busy while the handle reads the key ten times.
     Every read that tries the busy replica first bounces once to the
     other one; the busy replica serves none of them. *)
  let outcomes, busy_served, failovers =
    with_cluster ~seed:32L (fun cluster db ->
        let busy = List.hd (team cluster) in
        let before = served cluster busy in
        let failovers = Trace.count "client_read_failover" in
        let rec reads n acc =
          if n = 0 then Future.return (List.rev acc)
          else begin
            hog cluster busy;
            let b = bounces cluster in
            let* v = Client.run db (fun tx -> Client.get tx key) in
            reads (n - 1) ((v, bounces cluster - b) :: acc)
          end
        in
        let* outcomes = reads 10 [] in
        Future.return
          ( outcomes,
            served cluster busy - before,
            Trace.count "client_read_failover" - failovers ))
  in
  List.iter
    (fun (v, bounced) ->
      Alcotest.(check (option string)) "the read returned the value" (Some "v") v;
      Alcotest.(check bool)
        (Printf.sprintf "at most one bounce per read (%d)" bounced)
        true
        (bounced = 0 || bounced = 1))
    outcomes;
  Alcotest.(check bool) "some read met the busy replica first" true
    (List.exists (fun (_, b) -> b = 1) outcomes);
  Alcotest.(check int) "the busy replica served nothing" 0 busy_served;
  Alcotest.(check int) "a bounce is not a failover" 0 failovers

let test_all_busy_last_serves () =
  let value, bounced, failovers, served_total =
    with_cluster ~seed:33L (fun cluster db ->
        let members = team cluster in
        let before = List.fold_left (fun a ss -> a + served cluster ss) 0 members in
        let failovers = Trace.count "client_read_failover" in
        List.iter (hog cluster) members;
        let b = bounces cluster in
        let* v = Client.run db (fun tx -> Client.get tx key) in
        Future.return
          ( v,
            bounces cluster - b,
            Trace.count "client_read_failover" - failovers,
            List.fold_left (fun a ss -> a + served cluster ss) 0 members - before ))
  in
  Alcotest.(check (option string)) "the read returned the value" (Some "v") value;
  Alcotest.(check int) "every replica but the last bounced it" 1 bounced;
  Alcotest.(check int) "no failover" 0 failovers;
  Alcotest.(check int) "one replica served it" 1 served_total

let test_dead_last_fails_over () =
  (* Of the key's two replicas, one is busy and one is dead. A read that
     tries the dead one first times out and fails over to the busy one,
     which must serve it. A read that tries the busy one first bounces,
     times out on the dead one, and fails over back to the busy one. Either
     way the read succeeds. *)
  let values, bounced, failovers, settled =
    with_cluster ~seed:34L (fun cluster db ->
        let members = team cluster in
        let busy = List.hd members and dead = List.nth members 1 in
        let* version = Client.get_read_version (Client.begin_tx db) in
        let per_machine =
          (Cluster.context cluster).Context.config.Config.storage_per_machine
        in
        Fault_injector.kill_machine (Cluster.worker_machines cluster).(dead / per_machine);
        let b = bounces cluster in
        let failovers = Trace.count "client_read_failover" in
        let rec reads n acc =
          if n = 0 then Future.return (List.rev acc)
          else begin
            hog cluster busy;
            let tx = Client.begin_tx db in
            Client.set_read_version tx version;
            let* v = Client.get tx key in
            reads (n - 1) (v :: acc)
          end
        in
        let* values = reads 4 [] in
        Future.return
          ( values,
            bounces cluster - b,
            Trace.count "client_read_failover" - failovers,
            all_zero db ))
  in
  List.iter
    (fun v -> Alcotest.(check (option string)) "the read returned the value" (Some "v") v)
    values;
  Alcotest.(check bool)
    (Printf.sprintf "some read tried the dead replica last (%d bounces)" bounced)
    true (bounced > 0);
  Alcotest.(check int) "each read failed over once" (List.length values) failovers;
  Alcotest.(check bool) "in-flight counts back to 0" true settled

let suite =
  [
    Alcotest.test_case "a busy server refuses a bounceable read" `Quick
      test_busy_server_refuses;
    Alcotest.test_case "a busy first choice bounces to the next" `Quick
      test_busy_first_choice_bounces;
    Alcotest.test_case "every replica busy: the last serves" `Quick
      test_all_busy_last_serves;
    Alcotest.test_case "a dead last replica fails over" `Quick test_dead_last_fails_over;
  ]
