(* Fdb_obs: registry semantics, roll-up aggregation, and the determinism
   oracle — two runs of the same seed must serialize the whole metrics plane
   to identical bytes. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Registry = Fdb_obs.Registry
module Rollup = Fdb_obs.Rollup

(* ---------- registry semantics ---------- *)

let test_counter_semantics () =
  let reg = Registry.create () in
  let c1 = Registry.counter reg ~role:Registry.Proxy ~process:1 "commits" in
  let c2 = Registry.counter reg ~role:Registry.Proxy ~process:2 "commits" in
  Registry.incr c1;
  Registry.incr c1 ~by:4;
  Registry.incr c2 ~by:2;
  Alcotest.(check int) "process 1" 5
    (Registry.counter_value reg ~role:Registry.Proxy ~process:1 "commits");
  Alcotest.(check int) "process 2" 2
    (Registry.counter_value reg ~role:Registry.Proxy ~process:2 "commits");
  Alcotest.(check int) "absent is 0" 0
    (Registry.counter_value reg ~role:Registry.Proxy ~process:9 "commits");
  Alcotest.(check int) "summed" 7 (Registry.sum_counter reg ~role:Registry.Proxy "commits");
  (* Re-fetching the handle must alias the same cell, not reset it. *)
  let c1' = Registry.counter reg ~role:Registry.Proxy ~process:1 "commits" in
  Registry.incr c1';
  Alcotest.(check int) "handle aliases cell" 6
    (Registry.counter_value reg ~role:Registry.Proxy ~process:1 "commits")

let test_gauge_and_histogram_semantics () =
  let reg = Registry.create () in
  let g = Registry.gauge reg ~role:Registry.Storage ~process:3 "lag" in
  Alcotest.(check (option (float 0.0))) "gauge starts at 0" (Some 0.0)
    (Registry.gauge_value reg ~role:Registry.Storage ~process:3 "lag");
  Registry.set_gauge g 1.5;
  Registry.set_gauge g 0.25;
  Alcotest.(check (option (float 0.0))) "gauge holds last value" (Some 0.25)
    (Registry.gauge_value reg ~role:Registry.Storage ~process:3 "lag");
  Alcotest.(check (option (float 0.0))) "absent gauge is None" None
    (Registry.gauge_value reg ~role:Registry.Storage ~process:4 "lag");
  let h = Registry.histogram reg ~role:Registry.Storage ~process:3 "read_latency" in
  Registry.observe h 0.001;
  Registry.observe h 0.002;
  (match Registry.histograms reg ~role:Registry.Storage "read_latency" with
  | [ (3, hist) ] -> Alcotest.(check int) "samples recorded" 2 (Fdb_util.Histogram.count hist)
  | l -> Alcotest.fail (Printf.sprintf "expected one histogram, got %d" (List.length l)))

let test_kind_mismatch_rejected () =
  let reg = Registry.create () in
  let _ = Registry.counter reg ~role:Registry.Log ~process:1 "pushes" in
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument "Fdb_obs: metric is not a gauge: pushes") (fun () ->
      ignore (Registry.gauge reg ~role:Registry.Log ~process:1 "pushes"))

let test_serialize_canonical_order () =
  let reg = Registry.create () in
  (* Insert in scrambled order; serialization must sort role/process/metric. *)
  Registry.incr (Registry.counter reg ~role:Registry.Storage ~process:2 "reads");
  Registry.incr (Registry.counter reg ~role:Registry.Proxy ~process:1 "grv_served");
  Registry.incr (Registry.counter reg ~role:Registry.Storage ~process:1 "reads");
  Registry.incr (Registry.counter reg ~role:Registry.Proxy ~process:1 "commits");
  Alcotest.(check string) "canonical dump"
    "proxy/1/commits 1\nproxy/1/grv_served 1\nproxy/1/reads 0\nstorage/1/reads 1\nstorage/2/reads 1\n"
    (let _ = Registry.counter reg ~role:Registry.Proxy ~process:1 "reads" in
     Registry.serialize reg)

(* ---------- roll-up aggregation ---------- *)

let two_storage_registry () =
  let reg = Registry.create () in
  Registry.incr (Registry.counter reg ~role:Registry.Storage ~process:1 "reads") ~by:10;
  Registry.incr (Registry.counter reg ~role:Registry.Storage ~process:2 "reads") ~by:5;
  Registry.set_gauge (Registry.gauge reg ~role:Registry.Storage ~process:1 "lag") 0.5;
  Registry.set_gauge (Registry.gauge reg ~role:Registry.Storage ~process:2 "lag") 2.0;
  let h1 = Registry.histogram reg ~role:Registry.Storage ~process:1 "read_latency" in
  let h2 = Registry.histogram reg ~role:Registry.Storage ~process:2 "read_latency" in
  List.iter (Registry.observe h1) [ 0.001; 0.002; 0.003 ];
  List.iter (Registry.observe h2) [ 0.004 ];
  reg

let test_rollup_aggregates_per_role () =
  let doc = Rollup.snapshot ~now:12.5 (two_storage_registry ()) in
  Alcotest.(check (float 0.0)) "snapshot time" 12.5 doc.Rollup.d_time;
  match doc.Rollup.d_roles with
  | [ rd ] ->
      Alcotest.(check string) "role" "storage" rd.Rollup.rd_role;
      Alcotest.(check int) "processes" 2 rd.Rollup.rd_processes;
      Alcotest.(check (list (pair string int))) "counters summed" [ ("reads", 15) ]
        rd.Rollup.rd_counters;
      (match rd.Rollup.rd_gauges with
      | [ ("lag", (lo, hi)) ] ->
          Alcotest.(check (float 1e-9)) "gauge min" 0.5 lo;
          Alcotest.(check (float 1e-9)) "gauge max" 2.0 hi
      | _ -> Alcotest.fail "expected one lag gauge");
      (match rd.Rollup.rd_latencies with
      | [ ("read_latency", l) ] ->
          Alcotest.(check int) "merged count" 4 l.Rollup.l_count;
          Alcotest.(check bool) "merged max from other process" true
            (l.Rollup.l_max >= 0.004 *. 0.97)
      | _ -> Alcotest.fail "expected one merged latency")
  | l -> Alcotest.fail (Printf.sprintf "expected one role doc, got %d" (List.length l))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_rollup_json_shape () =
  let doc = Rollup.snapshot ~now:1.0 (two_storage_registry ()) in
  let json = Rollup.json_of_doc doc in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json contains %s" needle) true
        (contains json needle))
    [
      "{\"time\":1,\"roles\":{\"storage\":{";
      "\"processes\":2";
      "\"counters\":{\"reads\":15}";
      "\"lag\":{\"min\":0.5,\"max\":2}";
      "\"read_latency\":{\"count\":4";
      "\"p99_ms\":";
    ]

(* ---------- determinism oracle ---------- *)

(* Boot a full cluster, run a fixed workload, and dump the entire metrics
   plane. Identical seeds must yield byte-identical dumps: the registry is
   fed only from simulated time and deterministic role execution. *)
let metrics_fingerprint seed =
  Engine.run ~seed ~max_time:1e4 (fun () ->
      let cluster = Cluster.create () in
      let* () = Cluster.wait_ready cluster in
      let db = Cluster.client cluster ~name:"det" in
      let rec txn i =
        if i >= 15 then Future.return ()
        else
          let* _ =
            Client.run db (fun tx ->
                Client.set tx (Printf.sprintf "det/%02d" i) (string_of_int i);
                let* _ = Client.get tx "det/00" in
                Future.return ())
          in
          txn (i + 1)
      in
      let* () = txn 0 in
      let* () = Engine.sleep 1.5 in
      let* status = Fdb_workloads.Status.gather cluster in
      let doc = Cluster.status_doc cluster in
      Future.return
        ( Registry.serialize (Cluster.metrics cluster),
          Fdb_workloads.Status.to_json status doc,
          status ))

let test_determinism_same_seed () =
  let dump1, json1, status = metrics_fingerprint 101L in
  let dump2, json2, _ = metrics_fingerprint 101L in
  Alcotest.(check string) "registry dumps bit-identical" dump1 dump2;
  Alcotest.(check string) "status json bit-identical" json1 json2;
  Alcotest.(check bool) "dump is non-trivial" true (String.length dump1 > 200);
  (* Config.default: 10 servers, 20 shards, 3 replicas — 6 shards each. *)
  let open Fdb_workloads.Status in
  Alcotest.(check (pair int int)) "shards per storage server (min, max)" (6, 6)
    (status.st_storage_shards_min, status.st_storage_shards_max);
  Alcotest.(check bool) "json carries shard counts" true
    (contains json1 "\"storage_shards_min\":6,\"storage_shards_max\":6,")

(* ---------- layer evidence: LogServer push bytes ---------- *)

(* On Config.default every LogServer replicates every tag, and each
   mutation has 3 tags. A push carries each mutation once with its tags, so
   every LogServer's push_bytes grows by exactly the written bytes, not by
   one copy per tag. *)
let test_log_push_bytes_once () =
  let writes = List.init 6 (fun i -> (Printf.sprintf "blind/%02d" i, String.make (10 * i) 'v')) in
  let written =
    List.fold_left
      (fun acc (k, v) -> acc + Fdb_kv.Mutation.byte_size (Fdb_kv.Mutation.Set (k, v)))
      0 writes
  in
  let before, after =
    Engine.run ~seed:7L ~max_time:1e4 (fun () ->
        let cluster = Cluster.create ~config:Config.default () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"blind" in
        let push_bytes () = Registry.counters (Cluster.metrics cluster) ~role:Registry.Log "push_bytes" in
        let before = push_bytes () in
        let* () =
          Client.run db (fun tx ->
              List.iter (fun (k, v) -> Client.set tx k v) writes;
              Future.return ())
        in
        Future.return (before, push_bytes ()))
  in
  Alcotest.(check int) "one counter per LogServer" Config.default.Config.log_servers
    (List.length after);
  List.iter
    (fun (pid, bytes) ->
      let base = Option.value (List.assoc_opt pid before) ~default:0 in
      Alcotest.(check int) (Printf.sprintf "log %d push bytes" pid) written (bytes - base))
    after

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "gauge and histogram semantics" `Quick test_gauge_and_histogram_semantics;
    Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch_rejected;
    Alcotest.test_case "serialize canonical order" `Quick test_serialize_canonical_order;
    Alcotest.test_case "rollup aggregates per role" `Quick test_rollup_aggregates_per_role;
    Alcotest.test_case "rollup json shape" `Quick test_rollup_json_shape;
    Alcotest.test_case "metrics dump deterministic" `Slow test_determinism_same_seed;
    Alcotest.test_case "log push bytes count each mutation once" `Quick test_log_push_bytes_once;
  ]
