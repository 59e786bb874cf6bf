(* The pipelined proxy commit path (overlapping in-flight batches):

   - qcheck property: for a generated workload of concurrent blind-write
     bursts plus a deterministic conflict gadget, running with pipeline
     depth 4 yields byte-for-byte the same client outcomes and the same
     final storage contents as the serial path (depth 1) on the same seed;
   - buggify reorder regression: with `proxy_slow_commit` and
     `tlog_slow_sync` active, batch completion is reordered mid-pipeline,
     yet Seq_report traces stay LSN-ordered, the proxy KCV stays monotone,
     and every transaction gets exactly one reply;
   - mid-pipeline push failure: a LogServer killed while several batches
     are in flight must fail the epoch — outcomes in submission order are
     a prefix of successes followed only by failures, with at least one
     `Commit_unknown_result` (a batch whose durability the client cannot
     know). *)

open Fdb_sim
open Fdb_core
open Future.Syntax

let with_cluster ?(seed = 11L) ?(buggify = false) ~depth ~batch body =
  let config =
    {
      Config.test_small with
      Config.proxy_commit_pipeline_depth = depth;
      max_commit_batch = batch;
    }
  in
  Engine.run ~seed ~max_time:1e5 ~buggify (fun () ->
      let cluster = Cluster.create ~config () in
      let* () = Cluster.wait_ready cluster in
      body cluster)

(* ---------- serial-vs-pipelined equivalence (qcheck) ---------- *)

type outcome = Committed | Failed of string

let outcome_of_exn = function
  | Error.Fdb e -> Failed (Error.to_string e)
  | e -> Failed (Printexc.to_string e)

let key burst i = Printf.sprintf "cp/%02d/%03d" burst i
let value v = Printf.sprintf "v%05d" v

(* Run one generated workload: bursts of concurrent blind writes to
   pairwise-distinct keys (every one must commit; concurrency exercises
   the pipeline), then a read-write conflict gadget whose outcome is
   schedule-independent: t1 snapshots "cp/gadget", t2 overwrites it and
   commits, then t1 writes it — t1 must always lose. Returns the outcome
   list (submission order) and the full final contents of the test
   keyspace. *)
let run_workload ~depth ~seed (bursts : (int list) list) =
  with_cluster ~seed ~depth ~batch:4 (fun cluster ->
      let db = Cluster.client cluster ~name:"equiv" in
      let burst_outcomes b ops =
        let futs =
          List.mapi
            (fun i v ->
              let tx = Client.begin_tx db in
              Client.set tx (key b i) (value v);
              Future.catch
                (fun () ->
                  let* (_ : Types.version) = Client.commit tx in
                  Future.return Committed)
                (fun e -> Future.return (outcome_of_exn e)))
            ops
        in
        Future.all futs
      in
      let rec go b acc = function
        | [] -> Future.return (List.rev acc)
        | ops :: rest ->
            let* outs = burst_outcomes b ops in
            go (b + 1) (outs :: acc) rest
      in
      let* burst_outs = go 0 [] bursts in
      (* Conflict gadget. *)
      let t1 = Client.begin_tx db in
      let* (_ : string option) = Client.get t1 "cp/gadget" in
      let t2 = Client.begin_tx db in
      Client.set t2 "cp/gadget" "winner";
      let* (_ : Types.version) = Client.commit t2 in
      Client.set t1 "cp/gadget" "loser";
      let* gadget =
        Future.catch
          (fun () ->
            let* (_ : Types.version) = Client.commit t1 in
            Future.return Committed)
          (fun e -> Future.return (outcome_of_exn e))
      in
      (* Let storage drain the log, then read the final state back. *)
      let* () = Engine.sleep 1.0 in
      let* final =
        Client.run db (fun tx ->
            Client.range_all tx (Range_query.prefix ~limit:10_000 "cp/" ()))
      in
      Future.return (List.concat burst_outs @ [ gadget ], final))

let gen_bursts =
  QCheck.Gen.(
    list_size (int_range 1 3)
      (list_size (int_range 1 10) (int_range 0 99_999)))

let qcheck_equivalence =
  QCheck.Test.make
    ~name:"pipelined commits match serial replies and storage state" ~count:4
    (QCheck.make gen_bursts)
    (fun bursts ->
      let serial = run_workload ~depth:1 ~seed:17L bursts in
      let pipelined = run_workload ~depth:4 ~seed:17L bursts in
      let outcomes_s, final_s = serial in
      let outcomes_p, final_p = pipelined in
      if outcomes_s <> outcomes_p then begin
        Printf.printf "outcome mismatch: serial %d vs pipelined %d entries\n"
          (List.length outcomes_s) (List.length outcomes_p);
        false
      end
      else if final_s <> final_p then begin
        Printf.printf "final state mismatch: %d vs %d rows\n"
          (List.length final_s) (List.length final_p);
        false
      end
      else
        (* The gadget must have lost deterministically, not by luck. *)
        List.nth outcomes_s (List.length outcomes_s - 1)
        = Failed (Error.to_string Error.Not_committed))

(* ---------- buggify reorder regression ---------- *)

let int64_nondecreasing l =
  let rec go = function
    | a :: (b :: _ as tl) -> if Int64.compare a b <= 0 then go tl else false
    | _ -> true
  in
  go l

let trace_int64s name field =
  List.filter_map
    (fun (e : Trace.event) ->
      if e.Trace.te_name = name then
        Option.map Int64.of_string (List.assoc_opt field e.Trace.te_fields)
      else None)
    (Trace.events ())

let test_buggify_reorder_keeps_order () =
  (* Depth 4, tiny batches, buggify on: `proxy_slow_commit` stalls random
     batches so later ones overtake them at the resolver and the logs
     (parking), and `tlog_slow_sync` shuffles durability timing. The
     in-order completion stage must still deliver Seq_reports in LSN order
     and keep the KCV monotone. Seed chosen so the slow-commit point
     actually fires. *)
  let replied, reports, done_lsns, done_kcvs, parked, slow_fired =
    with_cluster ~seed:9L ~buggify:true ~depth:4 ~batch:4 (fun cluster ->
        let db = Cluster.client cluster ~name:"reorder" in
        let n = 120 in
        let futs =
          List.init n (fun i ->
              let tx = Client.begin_tx db in
              Client.set tx (Printf.sprintf "ro/%03d" i) (string_of_int i);
              Future.catch
                (fun () ->
                  let* (_ : Types.version) = Client.commit tx in
                  Future.return true)
                (fun _ -> Future.return true))
        in
        let* replies = Future.all futs in
        Future.return
          ( List.length (List.filter Fun.id replies),
            trace_int64s "seq_report" "lsn",
            trace_int64s "proxy_commit_done" "lsn",
            trace_int64s "proxy_commit_done" "kcv",
            Trace.count "resolver_park" + Trace.count "tlog_park",
            List.mem "proxy_slow_commit" (Buggify.points_hit ()) ))
  in
  Alcotest.(check int) "every transaction got exactly one reply" 120 replied;
  Alcotest.(check bool) "slow-commit buggify point fired" true slow_fired;
  Alcotest.(check bool)
    (Printf.sprintf "batches overlapped (%d parked out-of-order arrivals)" parked)
    true (parked > 0);
  Alcotest.(check bool)
    (Printf.sprintf "Seq_reports LSN-ordered (%d reports)" (List.length reports))
    true
    (int64_nondecreasing reports);
  Alcotest.(check bool) "commit-done LSNs in order" true
    (int64_nondecreasing done_lsns);
  Alcotest.(check bool) "proxy KCV monotone" true (int64_nondecreasing done_kcvs)

(* ---------- mid-pipeline push failure ---------- *)

let find_processes cluster prefix =
  Array.to_list (Cluster.worker_machines cluster)
  |> List.concat_map (fun m -> m.Process.machine_processes)
  |> List.filter (fun p ->
         p.Process.alive
         && String.length p.Process.name >= String.length prefix
         && String.sub p.Process.name 0 (String.length prefix) = prefix)

let test_push_failure_fails_later_batches () =
  (* Several small batches in flight when a LogServer dies: its pushes
     stop acking, the epoch must end, and no batch later than the first
     failed one may report success — clients see a prefix of commits,
     then only failures, at least one of them Commit_unknown_result
     (in-flight batches whose durability is undecided). *)
  let outcomes =
    with_cluster ~seed:21L ~depth:4 ~batch:2 (fun cluster ->
        let db = Cluster.client cluster ~name:"pushfail" in
        (* A first committed marker proves the cluster worked. *)
        let* (_ : Types.version) =
          let tx = Client.begin_tx db in
          Client.set tx "pf/marker" "1";
          Client.commit tx
        in
        let outcomes : (int * outcome) list ref = ref [] in
        let submit i =
          let tx = Client.begin_tx db in
          Client.set tx (Printf.sprintf "pf/%03d" i) (string_of_int i);
          Future.catch
            (fun () ->
              let* (_ : Types.version) = Client.commit tx in
              outcomes := (i, Committed) :: !outcomes;
              Future.return ())
            (fun e ->
              outcomes := (i, outcome_of_exn e) :: !outcomes;
              Future.return ())
        in
        (* Steady drip of commits, one every 0.5 ms, so
           batches form continuously; kill a log mid-stream. *)
        let n = 60 in
        let rec drip i acc =
          if i = n then Future.return acc
          else begin
            if i = 20 then
              (match find_processes cluster "tlog" with
              | p :: _ -> Engine.kill p
              | [] -> Alcotest.fail "no tlog process found");
            let f = submit i in
            let* () = Engine.sleep 5e-4 in
            drip (i + 1) (f :: acc)
          end
        in
        let* futs = drip 0 [] in
        let* () = Future.all_unit futs in
        Future.return (List.rev !outcomes))
  in
  (* Evaluate in submission order. *)
  let by_submission =
    List.sort (fun (a, _) (b, _) -> compare a b) outcomes
  in
  let states = List.map snd by_submission in
  let committed = List.filter (fun o -> o = Committed) states in
  let unknown =
    List.filter
      (fun o -> o = Failed (Error.to_string Error.Commit_unknown_result))
      states
  in
  Alcotest.(check bool)
    (Printf.sprintf "some commits succeeded before the kill (%d)"
       (List.length committed))
    true
    (List.length committed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "at least one Commit_unknown_result (%d)"
       (List.length unknown))
    true
    (List.length unknown > 0);
  (* Prefix property: after the first failure no later submission may have
     committed — a failed batch fails every later in-flight batch. *)
  let rec prefix_ok seen_failure = function
    | [] -> true
    | Committed :: tl -> if seen_failure then false else prefix_ok false tl
    | Failed _ :: tl -> prefix_ok true tl
  in
  Alcotest.(check bool) "successes form a prefix of the submission order" true
    (prefix_ok false states)

(* ---------- obs: pipeline metrics exist ---------- *)

(* 40 concurrent single-key commits. *)
let commit_burst cluster =
  let db = Cluster.client cluster ~name:"burst" in
  Future.all_unit
    (List.init 40 (fun i ->
         let tx = Client.begin_tx db in
         Client.set tx (Printf.sprintf "m/%02d" i) "x";
         let* (_ : Types.version) = Client.commit tx in
         Future.return ()))

let test_pipeline_metrics_registered () =
  let inflight, queue_depth, resolve_n, logpush_n, commit_n =
    with_cluster ~seed:13L ~depth:4 ~batch:8 (fun cluster ->
        let* () = commit_burst cluster in
        let reg = (Cluster.context cluster).Context.metrics in
        let module R = Fdb_obs.Registry in
        let hist_count name =
          List.fold_left
            (fun acc (_, h) -> acc + Fdb_util.Histogram.count h)
            0
            (R.histograms reg ~role:R.Proxy name)
        in
        Future.return
          ( R.gauges reg ~role:R.Proxy "commit_inflight_batches",
            R.gauges reg ~role:R.Proxy "commit_queue_depth",
            hist_count "commit_resolve_latency",
            hist_count "commit_logpush_latency",
            hist_count "commit_latency" ))
  in
  Alcotest.(check bool) "commit_inflight_batches gauge registered" true
    (inflight <> []);
  Alcotest.(check bool) "commit_queue_depth gauge registered" true
    (queue_depth <> []);
  Alcotest.(check bool) "per-stage resolve timer recorded" true (resolve_n > 0);
  Alcotest.(check bool) "per-stage logpush timer recorded" true (logpush_n > 0);
  Alcotest.(check bool) "commit_latency still recorded" true (commit_n > 0)

(* ---------- batches leave when the previous one allows ---------- *)

(* The summed count and total of one proxy histogram. *)
let proxy_hist cluster name =
  let module R = Fdb_obs.Registry in
  List.fold_left
    (fun (n, total) (_, h) -> (n + Fdb_util.Histogram.count h, total +. Fdb_util.Histogram.total h))
    (0, 0.0)
    (R.histograms (Cluster.metrics cluster) ~role:R.Proxy name)

(* On an idle cluster nothing holds a request back: a GRV costs the proxy
   one Sequencer round trip, and a commit its round trips alone. *)
let test_idle_batches_leave_at_once () =
  let grv_s, commit_s =
    Engine.run ~seed:5L ~max_time:1e5 (fun () ->
        let cluster = Cluster.create () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"idle" in
        let* (_ : Types.version) = Client.get_read_version (Client.begin_tx db) in
        let* () = Engine.sleep 1.0 in
        let n0, total0 = proxy_hist cluster "grv_latency" in
        let tx = Client.begin_tx db in
        let* (_ : Types.version) = Client.get_read_version tx in
        let n1, total1 = proxy_hist cluster "grv_latency" in
        Client.set tx "idle/k" "v";
        let t0 = Engine.now () in
        let* (_ : Types.version) = Client.commit tx in
        Future.return ((total1 -. total0) /. float_of_int (n1 - n0), Engine.now () -. t0))
  in
  Alcotest.(check bool) (Printf.sprintf "proxy GRV latency %.3f ms < 0.5 ms" (grv_s *. 1e3))
    true (grv_s < 5e-4);
  Alcotest.(check bool) (Printf.sprintf "client commit latency %.3f ms < 3 ms" (commit_s *. 1e3))
    true (commit_s < 3e-3)

(* 40 GRVs sent to one proxy at one instant are served in at most two
   batches: the first request's batch and whatever queued behind it. *)
let test_grv_burst_batches () =
  let batches, served =
    Engine.run ~seed:5L ~max_time:1e5 (fun () ->
        let cluster = Cluster.create ~config:{ Config.default with Config.proxies = 1 } () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"burst" in
        let* (_ : Types.version) = Client.get_read_version (Client.begin_tx db) in
        let* () = Engine.sleep 1.0 in
        let n0, served0 = proxy_hist cluster "grv_batch_size" in
        let* (_ : Types.version list) =
          Future.all (List.init 40 (fun _ -> Client.get_read_version (Client.begin_tx db)))
        in
        let n1, served1 = proxy_hist cluster "grv_batch_size" in
        Future.return (n1 - n0, int_of_float (served1 -. served0)))
  in
  Alcotest.(check int) "40 GRVs served" 40 served;
  Alcotest.(check bool) (Printf.sprintf "in at most 2 batches (%d)" batches) true (batches <= 2)

(* ---------- knobs belong to the cluster ---------- *)

(* Two clusters in one simulation, differing only in pipeline depth, take
   the same commit burst at the same instant. Each proxy's in-flight gauge
   is sampled every 100 us of simulated time: the depth-1 cluster must
   never exceed one batch in flight while the depth-4 cluster overlaps
   several — each cluster runs on its own knobs. *)
let test_knobs_are_per_cluster () =
  let config depth =
    {
      Config.test_small with
      Config.proxy_commit_pipeline_depth = depth;
      max_commit_batch = 2;
    }
  in
  let peaks =
    Engine.run ~seed:17L ~max_time:1e5 (fun () ->
        let clusters =
          List.map (fun d -> Cluster.create ~config:(config d) ()) [ 1; 4 ]
        in
        let* () = Future.all_unit (List.map Cluster.wait_ready clusters) in
        let peaks = List.map (fun _ -> ref 0.0) clusters in
        let stop = ref false in
        let rec sample () =
          List.iter2
            (fun c peak ->
              List.iter
                (fun (_, v) -> peak := Float.max !peak v)
                (Fdb_obs.Registry.gauges (Cluster.metrics c)
                   ~role:Fdb_obs.Registry.Proxy "commit_inflight_batches"))
            clusters peaks;
          if !stop then Future.return ()
          else
            let* () = Engine.sleep 1e-4 in
            sample ()
        in
        let sampler = sample () in
        let* () = Future.all_unit (List.map commit_burst clusters) in
        stop := true;
        let* () = sampler in
        Future.return (List.map ( ! ) peaks))
  in
  match peaks with
  | [ serial; pipelined ] ->
      Alcotest.(check (float 0.0)) "depth-1 cluster: one batch in flight" 1.0 serial;
      Alcotest.(check bool)
        (Printf.sprintf "depth-4 cluster overlaps batches (peak %.0f)" pipelined)
        true (pipelined > 1.0)
  | _ -> Alcotest.fail "expected two clusters"

let suite =
  [
    Property.to_alcotest qcheck_equivalence;
    Alcotest.test_case "buggify reorder keeps LSN order" `Slow
      test_buggify_reorder_keeps_order;
    Alcotest.test_case "push failure fails later in-flight batches" `Slow
      test_push_failure_fails_later_batches;
    Alcotest.test_case "pipeline metrics registered" `Quick
      test_pipeline_metrics_registered;
    Alcotest.test_case "knobs are per cluster" `Quick test_knobs_are_per_cluster;
    Alcotest.test_case "idle batches leave at once" `Quick test_idle_batches_leave_at_once;
    Alcotest.test_case "GRV burst batches" `Quick test_grv_burst_batches;
  ]
