(* fdb_sim: the simulation-testing command line (paper §4).

   Runs randomized whole-cluster simulations with fault injection and
   buggification, evaluating every oracle. A failing seed prints its
   report (and optionally the trace) and reproduces bit-identically.

     dune exec bin/fdb_sim.exe -- swarm --seeds 20
     dune exec bin/fdb_sim.exe -- run --seed 101 --duration 60 --trace *)

open Cmdliner

let leak_count (r : Fdb_workloads.Swarm.report) =
  Fdb_sim.Future.Lifecycle.total_leaks r.Fdb_workloads.Swarm.lifecycle

let run_seed ~buggify ~duration ~dd_movement ~layers ~trace ~check_leaks seed =
  let report =
    Fdb_workloads.Swarm.run_one ~buggify ~duration ~dd_movement ~layers ~seed ()
  in
  Format.printf "%a@." Fdb_workloads.Swarm.pp_report report;
  if trace && report.Fdb_workloads.Swarm.oracle_failures <> [] then
    Fdb_sim.Trace.dump Format.std_formatter ();
  let leaked = check_leaks && leak_count report > 0 in
  if leaked then
    Printf.printf "seed=%Ld LEAK FAIL: %d promise(s) still pending at sim end\n"
      seed (leak_count report);
  report.Fdb_workloads.Swarm.oracle_failures = [] && not leaked

let swarm_cmd =
  let seeds =
    Arg.(value & opt int 10 & info [ "seeds"; "n" ] ~doc:"Number of random runs.")
  in
  let start =
    Arg.(value & opt int 1 & info [ "start-seed" ] ~doc:"First seed (consecutive after).")
  in
  let duration =
    Arg.(value & opt float 40.0 & info [ "duration" ] ~doc:"Simulated seconds of chaos per run.")
  in
  let no_buggify =
    Arg.(value & flag & info [ "no-buggify" ] ~doc:"Disable buggification points.")
  in
  let check_det =
    Arg.(
      value & flag
      & info [ "check-determinism" ]
          ~doc:
            "Replay every seed twice and fail on trace- or shard-checksum \
             divergence (the paper's nondeterminism detector).")
  in
  let dd_movement =
    Arg.(
      value & flag
      & info [ "dd-movement" ]
          ~doc:
            "Enable active data distribution: the rebalancer plus a mover \
             job firing random shard splits, merges and moves during chaos.")
  in
  let check_leaks =
    Arg.(
      value & flag
      & info [ "check-leaks" ]
          ~doc:
            "Fail any run whose promise-lifecycle report shows leaked \
             wakeups: labeled promises still pending, with waiters, on live \
             processes at simulation end (the runtime backstop behind lint \
             rule R6).")
  in
  let layers =
    Arg.(
      value & flag
      & info [ "layers" ]
          ~doc:
            "Add the layer-ecosystem soak: directory-housed record stores \
             with transactional secondary indexes plus a watch-driven job \
             queue, checked by the index-consistency and exactly-once \
             oracles.")
  in
  let action seeds start duration no_buggify check_det dd_movement layers check_leaks =
    let buggify = not no_buggify in
    let failures = ref 0 in
    for s = start to start + seeds - 1 do
      let seed = Int64.of_int s in
      if check_det then begin
        match
          Fdb_workloads.Swarm.check_determinism ~buggify ~duration ~dd_movement
            ~layers ~seed ()
        with
        | Ok report ->
            let leaks = if check_leaks then leak_count report else 0 in
            Printf.printf "seed=%Ld csum=%016Lx shards=%016Lx determinism OK%s%s\n" seed
              report.Fdb_workloads.Swarm.trace_checksum
              report.Fdb_workloads.Swarm.shard_checksum
              (if report.Fdb_workloads.Swarm.oracle_failures = [] then ""
               else " (oracle FAIL)")
              (if leaks > 0 then Printf.sprintf " (LEAK FAIL: %d)" leaks else "");
            if report.Fdb_workloads.Swarm.oracle_failures <> [] || leaks > 0 then
              incr failures
        | Error (a, b) ->
            Printf.printf "seed=%Ld DETERMINISM FAIL: %016Lx <> %016Lx\n" seed a b;
            incr failures
      end
      else if
        not
          (run_seed ~buggify ~duration ~dd_movement ~layers ~trace:false
             ~check_leaks seed)
      then incr failures
    done;
    Printf.printf "%d/%d runs passed all oracles.\n" (seeds - !failures) seeds;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "swarm" ~doc:"Run many randomized fault-injection simulations.")
    Term.(
      const action $ seeds $ start $ duration $ no_buggify $ check_det $ dd_movement
      $ layers $ check_leaks)

let run_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  let duration =
    Arg.(value & opt float 40.0 & info [ "duration" ] ~doc:"Simulated seconds of chaos.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Dump the event trace on oracle failure.")
  in
  let no_buggify =
    Arg.(value & flag & info [ "no-buggify" ] ~doc:"Disable buggification points.")
  in
  let dd_movement =
    Arg.(value & flag & info [ "dd-movement" ] ~doc:"Enable active data distribution.")
  in
  let layers =
    Arg.(
      value & flag
      & info [ "layers" ] ~doc:"Add the layer-ecosystem soak and its oracles.")
  in
  let check_leaks =
    Arg.(
      value & flag
      & info [ "check-leaks" ] ~doc:"Fail on leaked promises at simulation end.")
  in
  let action seed duration trace no_buggify dd_movement layers check_leaks =
    if
      not
        (run_seed ~buggify:(not no_buggify) ~duration ~dd_movement ~layers ~trace
           ~check_leaks (Int64.of_int seed))
    then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run (or replay) a single seeded simulation.")
    Term.(
      const action $ seed $ duration $ trace $ no_buggify $ dd_movement $ layers
      $ check_leaks)

let status_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the machine-readable status document.")
  in
  let action seed json =
    let open Fdb_sim in
    let open Fdb_core in
    let report, doc =
      Engine.run ~seed:(Int64.of_int seed) ~max_time:1e4 (fun () ->
          let open Future.Syntax in
          let cluster = Cluster.create () in
          let* () = Cluster.wait_ready cluster in
          let db = Cluster.client cluster ~name:"status-demo" in
          let rec txn i =
            if i >= 25 then Future.return ()
            else
              let* _ =
                Client.run db (fun tx ->
                    Client.set tx (Printf.sprintf "demo/%02d" i) (string_of_int i);
                    let* _ = Client.get tx "demo/00" in
                    Future.return ())
              in
              txn (i + 1)
          in
          let* () = txn 0 in
          (* Let heartbeats and the ratekeeper tick so the gauges and
             percentile tables are populated. *)
          let* () = Engine.sleep 2.0 in
          let* report = Fdb_workloads.Status.gather cluster in
          Future.return (report, Cluster.status_doc cluster))
    in
    if json then print_endline (Fdb_workloads.Status.to_json report doc)
    else Format.printf "%a@." Fdb_workloads.Status.pp report
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Boot a simulated cluster and print its status report.")
    Term.(const action $ seed $ json)

let () =
  let doc = "deterministic simulation testing for the FoundationDB reproduction" in
  exit (Cmd.eval (Cmd.group (Cmd.info "fdb_sim" ~doc) [ swarm_cmd; run_cmd; status_cmd ]))
