(* Figure 9: throughput and average latency vs offered operation rate on
   the 24-machine configuration, 90/10 read-write open-loop load.
   Shapes to reproduce: throughput tracks the offered rate linearly until
   saturation; below the knee mean latencies are flat (read < GRV <
   commit); past the knee queueing blows latencies up while batching
   sustains throughput. Run at 1/20 scale: the paper's 100k-op knee region
   maps to ~5k and its 2M saturation point to ~100k. The sweep runs on to
   320k because with every storage server serving an equal share of
   shards our knee sits past that point. *)

open Fdb_core

let universe = 20_000
let scale = 20.0

let rates =
  [ 500.; 2_000.; 8_000.; 20_000.; 40_000.; 80_000.; 120_000.; 240_000.; 320_000. ]

let run () =
  Bench_util.header
    "Figure 9: 24-machine 90/10 open loop (1/20 scale: paper axis = 20x these ops)";
  Bench_util.row "%-12s %14s %10s %10s %10s %8s\n" "offered/s" "completed/s" "GRV ms"
    "Read ms" "Commit ms" "failed";
  let config = Config.scaled ~machines:24 in
  let config = Bench_util.shard_evenly config ~universe ~key_of:Bench_util.key in
  let last_doc = ref None in
  List.iter
    (fun rate ->
      let lat, tput =
        Bench_util.with_sim ~cpu_scale:scale config (fun cluster ->
            let open Fdb_sim.Future.Syntax in
            let* () = Bench_util.preload cluster ~universe in
            let* r = Bench_util.open_loop cluster ~universe ~rate ~warmup:4.0 ~measure:1.5 in
            last_doc := Some (Cluster.status_doc cluster);
            Fdb_sim.Future.return r)
      in
      let ms h = Fdb_util.Histogram.mean h *. 1e3 in
      Bench_util.row "%-12.0f %14.0f %10.2f %10.2f %10.2f %8d\n" rate tput
        (ms lat.Bench_util.grv) (ms lat.Bench_util.read) (ms lat.Bench_util.commit)
        lat.Bench_util.failed)
    rates;
  (* Server-side percentile view of the highest offered rate. *)
  Option.iter Bench_util.print_percentiles !last_doc
