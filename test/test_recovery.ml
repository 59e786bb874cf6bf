open Fdb_sim
open Fdb_core
open Future.Syntax

let with_cluster ?(seed = 7L) ?(config = Config.default) body =
  Engine.run ~seed ~max_time:1e5 (fun () ->
      let cluster = Cluster.create ~config () in
      let* () = Cluster.wait_ready cluster in
      body cluster)

(* Find a live role process by name prefix across the worker machines. *)
let find_processes cluster prefix =
  Array.to_list (Cluster.worker_machines cluster)
  |> List.concat_map (fun m -> m.Process.machine_processes)
  |> List.filter (fun p ->
         p.Process.alive
         && String.length p.Process.name >= String.length prefix
         && String.sub p.Process.name 0 (String.length prefix) = prefix)

let write_marker db k v = Client.run db (fun tx -> Client.set tx k v; Future.return ())
let read_marker db k = Client.run db (fun tx -> Client.get tx k)

let test_sequencer_kill_triggers_new_epoch () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c" in
        let* _ = write_marker db "before" "1" in
        let* epoch_before = Cluster.current_epoch cluster in
        (match find_processes cluster "sequencer" with
        | p :: _ -> Engine.kill p
        | [] -> Alcotest.fail "no sequencer process found");
        let* () = Cluster.wait_ready ~timeout:60.0 cluster in
        let* epoch_after = Cluster.current_epoch cluster in
        let* v = read_marker db "before" in
        let* _ = write_marker db "after" "2" in
        let* v2 = read_marker db "after" in
        Future.return (epoch_before, epoch_after, v, v2))
  in
  let eb, ea, v, v2 = r in
  Alcotest.(check bool) "epoch advanced" true (ea > eb);
  Alcotest.(check (option string)) "old data survives" (Some "1") v;
  Alcotest.(check (option string)) "new writes work" (Some "2") v2

let test_log_server_kill_recovers_committed_data () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c" in
        let* _ =
          Client.run db (fun tx ->
              for i = 0 to 49 do
                Client.set tx (Printf.sprintf "d/%02d" i) (string_of_int i)
              done;
              Future.return ())
        in
        (* Kill one log server process; its epoch ends; recovery must
           preserve every acknowledged commit. *)
        (match find_processes cluster "tlog" with
        | p :: _ -> Engine.kill p
        | [] -> Alcotest.fail "no tlog process found");
        let* () = Cluster.wait_ready ~timeout:60.0 cluster in
        Client.run db (fun tx -> Client.range_all tx (Range_query.prefix ~limit:100 "d/" ())))
  in
  Alcotest.(check int) "all 50 rows survive" 50 (List.length r)

let test_storage_server_kill_reads_from_replicas () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c" in
        let* _ = write_marker db "sskill" "v" in
        (match find_processes cluster "storage-" with
        | p :: _ -> Engine.kill p
        | [] -> Alcotest.fail "no storage process found");
        let* () = Engine.sleep 0.5 in
        read_marker db "sskill")
  in
  Alcotest.(check (option string)) "served by surviving replicas" (Some "v") r

let test_storage_server_reboot_catches_up () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c" in
        let* _ = write_marker db "k1" "v1" in
        let victims = find_processes cluster "storage-" in
        let victim = List.hd victims in
        Engine.reboot victim ~delay:1.0 ();
        (* Write while it is down; it must catch up from the logs. *)
        let* _ = write_marker db "k2" "v2" in
        let* () = Engine.sleep 15.0 in
        let* res = Fdb_workloads.Consistency_check.check cluster in
        Future.return res)
  in
  (match r with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("replicas diverged after reboot: " ^ m))

let test_full_cluster_reboot_durability () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c" in
        let* _ =
          Client.run db (fun tx ->
              for i = 0 to 19 do
                Client.set tx (Printf.sprintf "dur/%02d" i) "x"
              done;
              Future.return ())
        in
        (* Give storage a beat, then restart every machine simultaneously —
           the paper's upgrade path (§6.3). *)
        let* () = Engine.sleep 1.0 in
        Array.iter
          (fun m -> Fdb_sim.Fault_injector.reboot_machine ~delay:0.5 m)
          (Cluster.worker_machines cluster);
        let* () = Cluster.wait_ready ~timeout:90.0 cluster in
        Client.run db (fun tx ->
            Client.range_all tx (Range_query.prefix ~limit:100 "dur/" ())))
  in
  Alcotest.(check int) "acknowledged rows survive full restart" 20 (List.length r)

let test_repeated_recoveries () =
  let r =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c" in
        let rec cycle i =
          if i = 3 then Future.return ()
          else begin
            let* _ = write_marker db (Printf.sprintf "cyc/%d" i) "x" in
            (match find_processes cluster "sequencer" with
            | p :: _ -> Engine.kill p
            | [] -> ());
            let* () = Cluster.wait_ready ~timeout:60.0 cluster in
            cycle (i + 1)
          end
        in
        let* () = cycle 0 in
        let* epoch = Cluster.current_epoch cluster in
        let* rows =
          Client.run db (fun tx -> Client.range_all tx (Range_query.prefix "cyc/" ()))
        in
        Future.return (epoch, List.length rows))
  in
  Alcotest.(check bool) "several epochs" true (fst r >= 4);
  Alcotest.(check int) "all markers survive" 3 (snd r)

let test_bank_under_faults () =
  let failures =
    Engine.run ~seed:21L ~max_time:1e5 (fun () ->
        let cluster = Cluster.create ~config:Config.default () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"bank" in
        let* () = Fdb_workloads.Bank.setup db ~accounts:20 ~initial:100 in
        let stop_at = Engine.now () +. 30.0 in
        let rng = Engine.fork_rng () in
        let bank_job =
          Fdb_workloads.Bank.transfer_loop db ~accounts:20 ~until:stop_at ~rng
        in
        let faults =
          {
            Fault_injector.default with
            duration = 30.0;
            kill_mean_interval = 10.0;
            partition_mean_interval = 15.0;
          }
        in
        let fault_job =
          Fault_injector.run
            ~net:(Cluster.context cluster).Context.net
            ~machines:(Cluster.worker_machines cluster)
            faults
        in
        let* _stats = bank_job and* () = fault_job in
        let* () = Cluster.wait_ready ~timeout:90.0 cluster in
        let check_db = Cluster.client cluster ~name:"bank-check" in
        let* res = Fdb_workloads.Bank.check check_db ~accounts:20 ~expected_total:2000 in
        let* cons = Fdb_workloads.Consistency_check.check cluster in
        Future.return
          ((match res with Ok () -> [] | Error m -> [ m ])
          @ (match cons with Ok () -> [] | Error m -> [ m ])))
  in
  Alcotest.(check (list string)) "oracles pass under faults" [] failures

let test_log_prune_survives_reboot_and_recovery () =
  (* Regression for the seed-502 class: let the logs get pruned (storage
     pops + the 2 s GC), then reboot every current log server and force a
     recovery — the recovered RV must not regress below acknowledged
     commits, and all data must remain readable. *)
  let r =
    with_cluster ~seed:44L (fun cluster ->
        let db = Cluster.client cluster ~name:"c" in
        let* _ =
          Client.run db (fun tx ->
              for i = 0 to 29 do
                Client.set tx (Printf.sprintf "pr/%02d" i) "x"
              done;
              Future.return ())
        in
        (* Storage durable loop (0.25 s), pops, then log GC (every 2 s). *)
        let* () = Engine.sleep 6.0 in
        let* epoch = Cluster.current_epoch cluster in
        List.iter
          (fun p -> Engine.reboot p ~delay:0.5 ())
          (find_processes cluster (Printf.sprintf "tlog-%d." epoch));
        let* () = Cluster.wait_ready ~timeout:60.0 cluster in
        let* rows =
          Client.run db (fun tx -> Client.range_all tx (Range_query.prefix ~limit:50 "pr/" ()))
        in
        let* _ = write_marker db "pr-after" "y" in
        let* v = read_marker db "pr-after" in
        Future.return (List.length rows, v))
  in
  Alcotest.(check int) "all rows survive" 30 (fst r);
  Alcotest.(check (option string)) "writes work" (Some "y") (snd r)

(* A client that only sends blind writes never takes a read version, so the
   GRV path never refreshes its proxy list for it. After every proxy of its
   generation is rebooted, its next commit times out; the client must then
   find the new generation's proxies itself, or it keeps sending to dead
   ones forever. *)
let test_blind_writer_follows_new_proxies () =
  let blind_write db i =
    Future.catch
      (fun () ->
        let* () =
          Client.run db ~max_attempts:5 (fun tx ->
              Client.set tx (Printf.sprintf "blind/%d" i) "x";
              Future.return ())
        in
        Future.return true)
      (fun _ -> Future.return false)
  in
  let rebooted, recovered, acked, rows =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"blind" in
        let* first = blind_write db 0 in
        let* epoch = Cluster.current_epoch cluster in
        let name = Printf.sprintf "proxy-%d" epoch in
        let proxies =
          List.filter (fun p -> p.Process.name = name) (find_processes cluster name)
        in
        List.iter (fun p -> Engine.reboot p ~delay:0.5 ()) proxies;
        let* () = Cluster.wait_ready ~timeout:60.0 cluster in
        let* epoch' = Cluster.current_epoch cluster in
        let rec writes i acked =
          if i > 5 then Future.return acked
          else
            let* ok = blind_write db i in
            writes (i + 1) (if ok then acked + 1 else acked)
        in
        let* acked = writes 1 (if first then 1 else 0) in
        let reader = Cluster.client cluster ~name:"reader" in
        let* rows =
          Client.run reader (fun tx -> Client.range_all tx (Range_query.prefix "blind/" ()))
        in
        Future.return (List.length proxies, epoch' > epoch, acked, List.length rows))
  in
  Alcotest.(check bool) "rebooted the generation's proxies" true (rebooted > 0);
  Alcotest.(check bool) "a new generation recovered" true recovered;
  Alcotest.(check int) "every blind write committed" 6 acked;
  Alcotest.(check int) "every blind write readable" 6 rows

(* The ratekeeper now reads storage load off the shared metrics plane, so we
   can drive it directly: impersonate an overloaded storage server by
   publishing a huge lag gauge with a fresh heartbeat, and watch the budget
   collapse; let the heartbeat go stale and watch it climb back. A background
   writer keeps the real servers' versions advancing so their genuine lag
   stays under the throttle limit throughout. *)
let test_ratekeeper_throttles_on_metrics () =
  let module R = Fdb_obs.Registry in
  let r =
    with_cluster (fun cluster ->
        let reg = Cluster.metrics cluster in
        let rate () =
          List.fold_left (fun a (_, v) -> Float.max a v) 0.0
            (R.gauges reg ~role:R.Ratekeeper "rate")
        in
        let db = Cluster.client cluster ~name:"rk-pump" in
        let rec pump_writes until i =
          if Engine.now () >= until then Future.return ()
          else
            let* _ = write_marker db "rk/pump" (string_of_int i) in
            let* () = Engine.sleep 0.1 in
            pump_writes until (i + 1)
        in
        let stop_at = Engine.now () +. 13.0 in
        let writer = pump_writes stop_at 0 in
        let* () = Engine.sleep 2.0 in
        let rate_before = rate () in
        let hb = R.gauge reg ~role:R.Storage ~process:9999 "heartbeat" in
        R.set_gauge (R.gauge reg ~role:R.Storage ~process:9999 "lag") 100.0;
        let rec refresh_heartbeat n =
          if n = 0 then Future.return ()
          else begin
            R.set_gauge hb (Engine.now ());
            let* () = Engine.sleep 0.1 in
            refresh_heartbeat (n - 1)
          end
        in
        let* () = refresh_heartbeat 30 in
        let rate_during = rate () in
        let throttles = R.sum_counter reg ~role:R.Ratekeeper "throttles" in
        (* The heartbeat needs stale_after (1 s) to age out, during which the
           ratekeeper may throttle once or twice more — measure the trough
           after that, then give additive increase room to show recovery. *)
        let* () = Engine.sleep 1.5 in
        let rate_trough = rate () in
        let* () = Engine.sleep 6.0 in
        let rate_after = rate () in
        let* () = writer in
        Future.return (rate_before, rate_during, throttles, rate_trough, rate_after))
  in
  let rate_before, rate_during, throttles, rate_trough, rate_after = r in
  Alcotest.(check bool) "budget collapsed under fake lag" true (rate_during < rate_before /. 2.0);
  Alcotest.(check bool) "throttle decisions counted" true (throttles > 0);
  Alcotest.(check bool) "budget recovers once stale" true (rate_after > rate_trough *. 1.2)

(* ---------- recovery latency: no serial timeouts behind a detected failure ---------- *)

(* Once a fault is detected (at worst when the CC's long-poll times out,
   one heartbeat interval plus the heartbeat timeout after it was sent),
   only recovery work may stand between it and the first successful
   commit: 0.25 s of slack covers that work. *)
let recovery_bound = Params.heartbeat_timeout +. Params.heartbeat_interval +. 0.25

let current_tlog cluster =
  let* epoch = Cluster.current_epoch cluster in
  match find_processes cluster (Printf.sprintf "tlog-%d." epoch) with
  | p :: _ -> Future.return p
  | [] -> Alcotest.fail "no current-generation tlog found"

let only_sequencer cluster =
  match find_processes cluster "sequencer" with
  | [ p ] -> Future.return p
  | _ -> Alcotest.fail "expected exactly one sequencer process"

(* Reboot the victim (down longer than the recovery takes), then time the
   first read-modify-write transaction started after the fault. *)
let first_commit_within_bound victim () =
  let took, v =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"c" in
        let* _ = write_marker db "lat/warm" "0" in
        let* () = Engine.sleep 1.0 in
        let* p = victim cluster in
        let t0 = Engine.now () in
        Engine.reboot p ~delay:2.0 ();
        let* () =
          Client.run db (fun tx ->
              let* v = Client.get tx "lat/warm" in
              Client.set tx "lat/after" (Option.value v ~default:"" ^ "+");
              Future.return ())
        in
        let took = Engine.now () -. t0 in
        let* v = read_marker db "lat/after" in
        Future.return (took, v))
  in
  if took > recovery_bound then
    Alcotest.failf "first commit after the fault took %.3f s (bound %.2f s)" took
      recovery_bound;
  Alcotest.(check (option string)) "the commit is readable" (Some "0+") v

(* ---------- failure detection: a refused process, a silent machine ----------

   The CC holds a long-poll on the sequencer, and the sequencer one on each
   of its roles (Context.wait_failure). A role that ends answers its poll
   at once; a process that dies on a machine that stays up is refused, so
   its open poll fails one network delay later. Either way the generation
   ends without waiting for a tick. A machine that goes down is silent,
   and only the poll's timeout ends it. *)

(* Arm a fault with [prepare], apply it, and return how long it took for a
   new generation to finish recovering. *)
let time_to_new_generation_after prepare =
  with_cluster (fun cluster ->
      let db = Cluster.client cluster ~name:"c" in
      let* _ = write_marker db "gen/warm" "0" in
      let* () = Engine.sleep 1.0 in
      let* fault = prepare cluster in
      let recovered = Trace.count "recovery_complete" in
      let t0 = Engine.now () in
      fault ();
      let rec wait () =
        if Trace.count "recovery_complete" > recovered then Future.return (Engine.now () -. t0)
        else
          let* () = Engine.sleep 0.01 in
          wait ()
      in
      wait ())

(* Apply [fault] to the current sequencer process; return how long it
   took for a new generation to finish recovering. *)
let time_to_new_generation fault =
  time_to_new_generation_after (fun cluster ->
      let+ seq = only_sequencer cluster in
      fun () -> fault seq)

let within_a_tick what took =
  if took > Params.heartbeat_interval then
    Alcotest.failf "new generation %.3f s after %s (bound %.2f s)" took what
      Params.heartbeat_interval

let test_process_fault_detected_in_a_tick () =
  within_a_tick "the sequencer process died"
    (time_to_new_generation (fun p -> Engine.reboot p ~delay:2.0 ()))

let test_log_process_fault_detected_in_a_tick () =
  within_a_tick "a LogServer process died"
    (time_to_new_generation_after (fun cluster ->
         let+ p = current_tlog cluster in
         fun () -> Engine.reboot p ~delay:2.0 ()))

(* The current generation as the ClusterController knows it, asked of
   every worker in turn (only the CC's answers). *)
let cc_state cluster =
  let ctx = Cluster.context cluster in
  let from = Process.create ~name:"cc-query" (Process.fresh_machine ~dc:"dc1" 999_998) in
  let rec ask = function
    | [] -> Alcotest.fail "no cluster controller answered"
    | ep :: rest ->
        Future.catch
          (fun () -> Context.rpc ctx ~timeout:1.0 ~from ep (Message.Cc_get_state { cg_known = -1 }))
          (fun _ -> ask rest)
  in
  let+ st = ask (Array.to_list ctx.Context.worker_eps) in
  (ctx, from, st)

(* A proxy told to retire dies while its process lives: its held poll is
   answered at once, so the sequencer ends its generation without a tick. *)
let test_retired_proxy_detected_in_a_tick () =
  within_a_tick "a proxy was retired"
    (time_to_new_generation_after (fun cluster ->
         let+ ctx, from, st = cc_state cluster in
         fun () ->
           Context.send ctx ~from (List.hd st.Message.st_proxies)
             (Message.Proxy_retire { pr_epoch = st.Message.st_epoch })))

let test_machine_fault_waits_for_heartbeat () =
  let took =
    time_to_new_generation (fun p ->
        Fault_injector.reboot_machine ~delay:2.0 p.Process.machine)
  in
  if took < Params.heartbeat_timeout then
    Alcotest.failf "new generation %.3f s after the sequencer's machine went down: \
                    sooner than the %.2f s heartbeat timeout"
      took Params.heartbeat_timeout

(* With one old LogServer down for good, the lock phase proceeds on the
   m - k + 1 replies it has: the recovery (timed by the CC from declaring
   the failure to the new generation recovering) never waits out the dead
   LogServer's 1 s lock timeout, and every acknowledged commit survives. *)
let test_lock_at_quorum () =
  let module R = Fdb_obs.Registry in
  let longest, epochs, acked, lost, status =
    with_cluster ~seed:12L (fun cluster ->
        let db = Cluster.client cluster ~name:"w" in
        let acked = ref [] in
        let stop = ref false in
        let rec writer i =
          if !stop then Future.return ()
          else
            let k = Printf.sprintf "q/%04d" i in
            let* ok =
              Future.catch
                (fun () ->
                  let* () = write_marker db k "x" in
                  Future.return true)
                (fun _ -> Future.return false)
            in
            if ok then acked := k :: !acked;
            let* () = Engine.sleep 0.01 in
            writer (i + 1)
        in
        let w = writer 0 in
        let* () = Engine.sleep 1.0 in
        let* epoch = Cluster.current_epoch cluster in
        let* p = current_tlog cluster in
        Engine.kill p;
        let* () = Engine.sleep 4.0 in
        stop := true;
        let* () = w in
        let* () = Cluster.wait_ready ~timeout:60.0 cluster in
        let* epoch' = Cluster.current_epoch cluster in
        let* rows =
          Client.run db (fun tx -> Client.range_all tx (Range_query.prefix ~limit:10_000 "q/" ()))
        in
        let lost = List.filter (fun k -> not (List.mem_assoc k rows)) !acked in
        let longest =
          List.fold_left
            (fun acc (_, h) -> Float.max acc (Fdb_util.Histogram.max_value h))
            0.0
            (R.histograms (Cluster.metrics cluster) ~role:R.Cluster_controller
               "recovery_duration")
        in
        let* status = Fdb_workloads.Status.gather cluster in
        Future.return
          ( longest,
            epoch' - epoch,
            List.length !acked,
            lost,
            (epoch', status.Fdb_workloads.Status.st_last_recovery_epoch,
             status.Fdb_workloads.Status.st_last_recovery_s) ))
  in
  Alcotest.(check bool) "a new generation recovered" true (epochs >= 1);
  Alcotest.(check bool) "recovery timed" true (longest > 0.0);
  if longest >= Params.heartbeat_timeout then
    Alcotest.failf "recovery took %.3f s: it waited for the dead LogServer" longest;
  Alcotest.(check bool) "commits acknowledged" true (acked > 0);
  Alcotest.(check (list string)) "no acknowledged commit lost" [] lost;
  let epoch, last_epoch, last_s = status in
  Alcotest.(check int) "status names the last recovery's generation" epoch last_epoch;
  Alcotest.(check bool) "status gives its duration" true (last_s > 0.0 && last_s <= longest)

(* ---------- a dying proxy releases every waiter at once ---------- *)

(* One proxy against scripted roles: the sequencer hands out versions but
   never answers a GRV, the resolver commits everything, and no LogServer
   ever acknowledges a push. Waiters pile up in every state — GRVs in
   flight and queued, commit batches in flight and queued — then the CC's
   retirement notice arrives. Every waiter must be answered in that same
   instant, with the error its state calls for. *)
let proxy_death_releases_waiters ~depth () =
  let outcome =
    Engine.run ~seed:5L ~max_time:1e5 (fun () ->
        let config =
          { Config.default with Config.proxy_commit_pipeline_depth = depth }
        in
        let ctx = Test_log_server.mini_ctx ~config () in
        let net = ctx.Context.net in
        let machine = Process.fresh_machine 0 in
        let roles = Process.create ~name:"scripted-roles" machine in
        (* Never answers: the caller's own RPC timeout ends the call. *)
        let silent () = fst (Future.make ()) in
        let serve handle =
          let ep = Network.fresh_endpoint net in
          Context.serve ctx ep roles handle;
          ep
        in
        let last = ref 0L in
        let sequencer_role (type r) (req : r Message.req) : (r, Error.t) result Future.t =
          match req with
          | Message.Seq_version ->
              let prev = !last in
              last := Int64.add prev 1000L;
              Future.return (Ok { Message.version = !last; prev })
          | _ -> silent ()
        in
        let resolver_role (type r) (req : r Message.req) : (r, Error.t) result Future.t =
          match req with
          | Message.Resolve_req { rs_txns; _ } ->
              Future.return (Ok (Array.make (Array.length rs_txns) Message.V_commit))
          | _ -> silent ()
        in
        let sequencer = serve { handle = sequencer_role } in
        let resolver = serve { handle = resolver_role } in
        let logs =
          List.init config.Config.log_servers (fun i ->
              (i, serve { handle = (fun _ -> silent ()) }))
        in
        let proxy, _ =
          Proxy.create ctx
            (Process.create ~name:"proxy-1" machine)
            ~epoch:1 ~sequencer
            ~resolvers:[ (("", Types.system_key_space_end), resolver) ]
            ~logs ~ratekeeper:None ~recovery_version:0L
        in
        let commit i =
          let k = Printf.sprintf "pd/%d" i in
          Proxy.handle proxy
            (Message.Commit_req
               {
                 Message.tr_read_version = 0L;
                 tr_reads = [];
                 tr_writes = [ (k, Types.next_key k) ];
                 tr_mutations = [ Message.Plain (Fdb_kv.Mutation.Set (k, "v")) ];
               })
        in
        let grv_in_flight = Proxy.handle proxy Message.Grv_req in
        (* Each commit flushes as its own batch and parks on its log
           push; with the pipeline full, one more waits in the queue. *)
        let rec launch i acc =
          if i = depth then Future.return (List.rev acc)
          else
            let c = commit i in
            let* () = Engine.sleep 0.005 in
            launch (i + 1) (c :: acc)
        in
        let* commits_in_flight = launch 0 [] in
        let commit_queued = commit depth in
        let grv_queued = Proxy.handle proxy Message.Grv_req in
        let pending_before =
          List.length
            (List.filter Future.is_pending [ grv_in_flight; grv_queued ])
          + List.length (List.filter Future.is_pending (commit_queued :: commits_in_flight))
        in
        (* A retirement for an older generation is ignored. *)
        let* _ = Proxy.handle proxy (Message.Proxy_retire { pr_epoch = 0 }) in
        let alive_after_stale = not (Proxy.is_dead proxy) in
        let* _ = Proxy.handle proxy (Message.Proxy_retire { pr_epoch = 1 }) in
        let answer f =
          match Future.peek f with
          | Some (Error e) -> Error.to_string e
          | Some (Ok _) -> "unexpected reply"
          | None -> "pending"
        in
        let answers =
          [
            ("grv in flight", answer grv_in_flight);
            ("grv queued", answer grv_queued);
            ("commit queued", answer commit_queued);
          ]
          @ List.mapi
              (fun i f -> (Printf.sprintf "commit batch %d in flight" i, answer f))
              commits_in_flight
        in
        let* late = Proxy.handle proxy Message.Grv_req in
        (* Let the abandoned calls time out so every actor drains. *)
        let* () = Engine.sleep 5.0 in
        Future.return (pending_before, alive_after_stale, answers, late))
  in
  let leaks = Future.Lifecycle.total_leaks (Engine.last_run_lifecycle ()) in
  let pending_before, alive_after_stale, answers, late = outcome in
  Alcotest.(check int) "every waiter pending before the retirement" (depth + 3) pending_before;
  Alcotest.(check bool) "an older generation's retirement is ignored" true alive_after_stale;
  Alcotest.(check (list (pair string string)))
    "every waiter answered at once"
    ([
       ("grv in flight", "database_locked");
       ("grv queued", "database_locked");
       ("commit queued", "database_locked");
     ]
    @ List.init depth (fun i ->
          (Printf.sprintf "commit batch %d in flight" i, "commit_unknown_result")))
    answers;
  Alcotest.(check bool) "later requests are told the generation ended" true
    (late = Error Error.Wrong_epoch);
  Alcotest.(check int) "no leaked promises" 0 leaks

(* A live sequencer that answers a GRV batch with a definite error does
   not end the generation: the error is the batch's answer, the proxy
   stays up, and the next batch is served. *)
let test_locked_grv_keeps_proxy () =
  let outcome =
    Engine.run ~seed:5L ~max_time:1e5 (fun () ->
        let ctx = Test_log_server.mini_ctx () in
        let machine = Process.fresh_machine 0 in
        let roles = Process.create ~name:"scripted-roles" machine in
        let grvs = ref 0 in
        let sequencer_role (type r) (req : r Message.req) : (r, Error.t) result Future.t =
          match req with
          | Message.Seq_grv ->
              incr grvs;
              if !grvs = 1 then Future.return (Error Error.Database_locked)
              else Future.return (Ok { Message.gv_version = 7L; gv_epoch = 1 })
          | _ -> fst (Future.make ())
        in
        let sequencer = Network.fresh_endpoint ctx.Context.net in
        Context.serve ctx sequencer roles { handle = sequencer_role };
        let proxy, _ =
          Proxy.create ctx
            (Process.create ~name:"proxy-1" machine)
            ~epoch:1 ~sequencer ~resolvers:[] ~logs:[] ~ratekeeper:None ~recovery_version:0L
        in
        let first = Proxy.handle proxy Message.Grv_req in
        let second = Proxy.handle proxy Message.Grv_req in
        let* first = first in
        let* second = second in
        let alive = not (Proxy.is_dead proxy) in
        let+ next = Proxy.handle proxy Message.Grv_req in
        (first, second, alive, Result.map (fun rv -> rv.Message.gv_version) next))
  in
  let first, second, alive, next = outcome in
  let locked = Error Error.Database_locked in
  Alcotest.(check bool) "the batch's callers are told the database is locked" true
    (first = locked && second = locked);
  Alcotest.(check bool) "the proxy stays up" true alive;
  Alcotest.(check bool) "the next GRV is served" true (next = Ok 7L)

let suite =
  [
    Alcotest.test_case "sequencer kill -> new epoch" `Quick test_sequencer_kill_triggers_new_epoch;
    Alcotest.test_case "ratekeeper throttles on metrics" `Quick test_ratekeeper_throttles_on_metrics;
    Alcotest.test_case "log server kill recovers data" `Quick test_log_server_kill_recovers_committed_data;
    Alcotest.test_case "storage kill -> replica reads" `Quick test_storage_server_kill_reads_from_replicas;
    Alcotest.test_case "storage reboot catches up" `Quick test_storage_server_reboot_catches_up;
    Alcotest.test_case "full cluster reboot durability" `Quick test_full_cluster_reboot_durability;
    Alcotest.test_case "repeated recoveries" `Quick test_repeated_recoveries;
    Alcotest.test_case "blind writer follows new proxies" `Quick
      test_blind_writer_follows_new_proxies;
    Alcotest.test_case "bank under faults" `Slow test_bank_under_faults;
    Alcotest.test_case "sequencer kill: commit within detection bound" `Quick
      (first_commit_within_bound only_sequencer);
    Alcotest.test_case "tlog kill: commit within detection bound" `Quick
      (first_commit_within_bound current_tlog);
    Alcotest.test_case "old logs locked at quorum" `Quick test_lock_at_quorum;
    Alcotest.test_case "sequencer process reboot: new generation in a tick" `Quick
      test_process_fault_detected_in_a_tick;
    Alcotest.test_case "tlog process reboot: new generation in a tick" `Quick
      test_log_process_fault_detected_in_a_tick;
    Alcotest.test_case "retired proxy: new generation in a tick" `Quick
      test_retired_proxy_detected_in_a_tick;
    Alcotest.test_case "sequencer machine reboot: detected by heartbeat timeout" `Quick
      test_machine_fault_waits_for_heartbeat;
    Alcotest.test_case "proxy death releases waiters (serial)" `Quick
      (proxy_death_releases_waiters ~depth:1);
    Alcotest.test_case "proxy death releases waiters (pipelined)" `Quick
      (proxy_death_releases_waiters ~depth:4);
    Alcotest.test_case "locked GRV answer keeps proxy" `Quick test_locked_grv_keeps_proxy;
    Alcotest.test_case "log prune + reboot + recovery" `Quick
      test_log_prune_survives_reboot_and_recovery;
  ]
