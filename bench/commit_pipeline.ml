(* Commit-pipeline bench: the serial commit path (pipeline depth 1 — the
   pre-pipeline [Proxy.commit_flush], kept verbatim inside proxy.ml as the
   dispatch fallback) vs the bounded pipeline (depth
   [Config.proxy_commit_pipeline_depth]) on a single-proxy cluster, under
   an open-loop blind-write load at several offered rates. Records
   committed txn/s and client-observed commit latency p50/p99 per load
   into BENCH_commit.json, plus the speedup at the saturating load.

   The batch cap is pinned small for the bench: with the default 512 a
   single batch absorbs the whole offered load and the comparison would
   measure batching, not pipelining. With small batches the serial path is
   bottlenecked at one batch per end-to-end cycle (version RPC + resolve +
   push/sync + report) while the pipeline overlaps up to [depth] cycles. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng
module Histogram = Fdb_util.Histogram

type point = { tps : float; p50_ms : float; p99_ms : float; failed : int }

(* One offered-load measurement on a fresh single-proxy cluster. *)
let measure_load ~depth ~batch_cap ~rate ~warmup ~measure ~universe =
  let config =
    {
      Config.default with
      Config.proxies = 1;
      proxy_commit_pipeline_depth = depth;
      max_commit_batch = batch_cap;
    }
  in
  let tps = ref 0.0 and p50 = ref 0.0 and p99 = ref 0.0 and failed = ref 0 in
  Bench_util.with_sim ~cpu_scale:1.0 config (fun cluster ->
      let hist = Histogram.create () in
      let committed = ref 0 in
      let measuring = ref false in
      let dbs =
        Array.init 8 (fun i ->
            Cluster.client cluster ~name:(Printf.sprintf "commit-bench-%d" i))
      in
      let rng = Engine.fork_rng () in
      let stop_at = Engine.now () +. warmup +. measure in
      let blind_write db =
        let tx = Client.begin_tx db in
        Client.set tx (Bench_util.key (Rng.int rng universe)) (Bench_util.rand_value rng);
        let t0 = Engine.now () in
        Future.catch
          (fun () ->
            let* _ = Client.commit tx in
            if !measuring then begin
              Histogram.add hist (Engine.now () -. t0);
              incr committed
            end;
            Future.return ())
          (fun _ ->
            if !measuring then incr failed;
            Future.return ())
      in
      let rec arrivals () =
        if Engine.now () >= stop_at then Future.return ()
        else
          let* () = Engine.sleep (Rng.exponential rng (1.0 /. rate)) in
          let db = dbs.(Rng.int rng (Array.length dbs)) in
          Engine.spawn "commit-bench-txn" (fun () -> blind_write db);
          arrivals ()
      in
      let gen = arrivals () in
      let* () = Engine.sleep warmup in
      measuring := true;
      let t0 = Engine.now () in
      let* () = Engine.sleep measure in
      measuring := false;
      let elapsed = Engine.now () -. t0 in
      let* () = gen in
      (* Let in-flight commits settle (recorded only if they beat the flag
         flip; stragglers count as nothing, as in the open-loop benches). *)
      let* () = Engine.sleep 1.0 in
      tps := float_of_int !committed /. elapsed;
      p50 := Histogram.percentile hist 50.0 *. 1e3;
      p99 := Histogram.percentile hist 99.0 *. 1e3;
      if Sys.getenv_opt "BENCH_COMMIT_DEBUG" <> None then
        Bench_util.obs_percentiles cluster;
      Future.return ());
  { tps = !tps; p50_ms = !p50; p99_ms = !p99; failed = !failed }

let write_json ~smoke ~depth ~batch_cap ~rows ~speedup =
  let oc = open_out "BENCH_commit.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"commit_pipeline\",\n";
  Printf.fprintf oc "  \"mode\": \"%s\",\n" (if smoke then "smoke" else "full");
  Printf.fprintf oc "  \"pipeline_depth\": %d,\n" depth;
  Printf.fprintf oc "  \"max_commit_batch\": %d,\n" batch_cap;
  Printf.fprintf oc "  \"loads\": [\n";
  List.iteri
    (fun i (offered, serial, pipelined) ->
      Printf.fprintf oc
        "    {\"offered_tps\": %.0f,\n\
        \     \"serial\":    {\"tps\": %.0f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"failed\": %d},\n\
        \     \"pipelined\": {\"tps\": %.0f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"failed\": %d}}%s\n"
        offered serial.tps serial.p50_ms serial.p99_ms serial.failed
        pipelined.tps pipelined.p50_ms pipelined.p99_ms pipelined.failed
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"speedup_at_saturation\": %.2f\n" speedup;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote BENCH_commit.json\n%!"

let run ?(smoke = false) () =
  Bench_util.header
    "Commit pipeline: serial batches (depth 1) vs overlapped in-flight batches";
  let depth = 4 in
  let batch_cap = 8 in
  let universe = 10_000 in
  let loads =
    if smoke then [ 2_000.0; 6_000.0; 20_000.0 ]
    else [ 2_000.0; 4_000.0; 8_000.0; 14_000.0; 20_000.0 ]
  in
  let warmup = 0.5 and measure = if smoke then 1.5 else 4.0 in
  let rows =
    List.map
      (fun rate ->
        let load depth =
          measure_load ~depth ~batch_cap ~rate ~warmup ~measure ~universe
        in
        let serial = load 1 in
        let pipelined = load depth in
        Printf.printf
          "offered %6.0f/s   serial %6.0f/s (p50 %6.2f ms, p99 %7.2f ms)   \
           depth %d %6.0f/s (p50 %6.2f ms, p99 %7.2f ms)\n%!"
          rate serial.tps serial.p50_ms serial.p99_ms depth pipelined.tps
          pipelined.p50_ms pipelined.p99_ms;
        (rate, serial, pipelined))
      loads
  in
  (* Saturation point: the load where the serial path leaves the most
     offered transactions on the table. *)
  let _, sat_serial, sat_pipelined =
    let gap (offered, (s : point), _) = offered -. s.tps in
    List.fold_left
      (fun best row -> if gap row > gap best then row else best)
      (List.hd rows) (List.tl rows)
  in
  let speedup = sat_pipelined.tps /. Float.max sat_serial.tps 1e-9 in
  Printf.printf "single-proxy speedup at saturating load: %.2fx\n" speedup;
  write_json ~smoke ~depth ~batch_cap ~rows ~speedup;
  if speedup < 2.0 then
    failwith
      (Printf.sprintf
         "commit pipeline speedup regressed: %.2fx < 2x at saturating load"
         speedup)
