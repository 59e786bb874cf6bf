(* Rebalancing under skew (§2.5): Zipfian point-read throughput on a key
   population that lands entirely inside one shard (the default two-byte
   boundaries cannot split inside the "bench/" prefix), so a single team
   serves every read. Measure with the DataDistributor idle, then let it
   split the hot shard and spread the pieces across the cluster with
   fetch-then-cutover moves — under the same load — and measure again. The
   smoke run fails if the spread cluster is not at least 2x faster. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Keygen = Fdb_workloads.Random_ops.Keygen
module Registry = Fdb_obs.Registry

(* The DataDistributor starts idle; its policy is aggressive: split by
   size and by heat (so the hottest Zipf ranks end up isolated in shards
   small enough to spread one server apart), never merge back, and move at
   a low imbalance bar. *)
let config machines =
  {
    Config.default with
    Config.machines;
    proxies = 3;
    log_servers = 2;
    storage_per_machine = 1;
    log_replication = 2;
    storage_replication = 2;
    racks = machines;
    disks_per_machine = 2;
    dd =
      {
        Config.rebalance_interval = 0.5;
        split_bytes = 20_000;
        split_bandwidth = 25_000.0;
        merge_bytes = 0;
        imbalance_ratio = 1.2;
      };
  }

type point = { tps : float; ops : float; aborts : int }

let zipf_theta = 0.8

(* Ten Zipfian point reads per transaction: rank 0 is the hottest key, and
   every rank lives in the single "bench/" shard until the DD splits it. *)
let read_txn gen db rng =
  Client.run db (fun tx ->
      let rec go i bytes =
        if i = 10 then Future.return (10, bytes)
        else
          let key = Bench_util.key (Keygen.next_rank gen rng) in
          let* v = tx |> fun tx -> Client.get tx key in
          go (i + 1)
            (bytes + String.length key
            + match v with Some s -> String.length s | None -> 0)
      in
      go 0 0)

let dd_moves cluster =
  List.fold_left
    (fun acc (_, v) -> acc + v)
    0
    (Registry.counters (Cluster.metrics cluster) ~role:Registry.Data_distributor
       "moves_committed")

let write_json ~smoke ~universe ~shards_before ~shards_after ~moves
    ~(before : point) ~(after : point) ~speedup =
  let oc = open_out "BENCH_rebalance.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"name\": \"rebalance\",\n";
  Printf.fprintf oc "  \"smoke\": %b,\n" smoke;
  Printf.fprintf oc "  \"universe\": %d,\n" universe;
  Printf.fprintf oc "  \"zipf_theta\": %.2f,\n" zipf_theta;
  Printf.fprintf oc "  \"shards_before\": %d,\n" shards_before;
  Printf.fprintf oc "  \"shards_after\": %d,\n" shards_after;
  Printf.fprintf oc "  \"moves_committed\": %d,\n" moves;
  Printf.fprintf oc
    "  \"before\": {\"tps\": %.1f, \"ops_per_s\": %.1f, \"aborts\": %d},\n"
    before.tps before.ops before.aborts;
  Printf.fprintf oc
    "  \"after\": {\"tps\": %.1f, \"ops_per_s\": %.1f, \"aborts\": %d},\n"
    after.tps after.ops after.aborts;
  Printf.fprintf oc "  \"speedup\": %.2f\n" speedup;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote BENCH_rebalance.json\n%!"

let run ?(smoke = false) () =
  Bench_util.header
    "Rebalancing under skew: Zipfian reads on one hot shard, DD off vs on";
  let machines = 6 in
  let universe = if smoke then 2_500 else 8_000 in
  let clients = 32 in
  let warmup = 1.0 and measure = if smoke then 4.0 else 10.0 in
  let rebalance_time = if smoke then 30.0 else 45.0 in
  let gen = Keygen.zipfian ~n:universe ~theta:zipf_theta in
  let shards_before, shards_after, moves, before, after =
    Bench_util.with_sim ~seed:4242L (config machines) (fun cluster ->
        let* () = Bench_util.preload cluster ~universe in
        let sm = (Cluster.context cluster).Context.shard_map in
        let shards_before = Shard_map.shard_count sm in
        let txn db rng = read_txn gen db rng in
        let* b_tps, b_ops, _, b_aborts =
          Bench_util.closed_loop cluster ~clients ~warmup ~measure ~txn
        in
        (* Unleash the DataDistributor, and keep the load running while it
           splits and spreads the hot shard. *)
        (Cluster.context cluster).Context.dd_movement <- true;
        let* _ =
          Bench_util.closed_loop cluster ~clients ~warmup:rebalance_time
            ~measure:1.0 ~txn
        in
        (* Steady state: movement stays enabled (the realistic config); with
           the load spread there is nothing left worth moving. *)
        let* a_tps, a_ops, _, a_aborts =
          Bench_util.closed_loop cluster ~clients ~warmup ~measure ~txn
        in
        Future.return
          ( shards_before, Shard_map.shard_count sm, dd_moves cluster,
            { tps = b_tps; ops = b_ops; aborts = b_aborts },
            { tps = a_tps; ops = a_ops; aborts = a_aborts } ))
  in
  let speedup = after.tps /. Float.max before.tps 1e-9 in
  Printf.printf
    "one hot shard : %7.0f reads/s (%5.0f txn/s, %d aborts) over %d shards\n"
    before.ops before.tps before.aborts shards_before;
  Printf.printf
    "rebalanced    : %7.0f reads/s (%5.0f txn/s, %d aborts) over %d shards, %d moves\n"
    after.ops after.tps after.aborts shards_after moves;
  Printf.printf "rebalancing speedup: %.2fx\n" speedup;
  write_json ~smoke ~universe ~shards_before ~shards_after ~moves ~before ~after
    ~speedup;
  if speedup < 2.0 then
    failwith
      (Printf.sprintf "rebalancing speedup regressed: %.2fx < 2x under skew"
         speedup)
