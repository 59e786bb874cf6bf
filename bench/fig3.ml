(* Figure 3: the lag from StorageServers to LogServers under steady load.
   The paper reports, over 12 hours of production traffic, 99.9th
   percentiles of 3.96 ms (cluster-average lag) and 208.6 ms (cluster-max
   lag). We run a steady mixed workload and sample every StorageServer's
   version lag once per 100 ms, reporting the same two series. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Histogram = Fdb_util.Histogram

let universe = 5_000

(* BENCH_fig3.json: both lag series in ms, with the paper's p99.9 beside
   ours (the paper gives no other statistic). *)
let write_json ~samples ~avg ~max =
  let series name h ~paper_p999 =
    Printf.sprintf
      "  \"%s\": {\"mean_ms\": %.2f, \"p99_ms\": %.2f, \"p999_ms\": %.2f, \"max_ms\": %.2f, \"paper_p999_ms\": %.2f}"
      name
      (Histogram.mean h *. 1e3)
      (Histogram.percentile h 99.0 *. 1e3)
      (Histogram.percentile h 99.9 *. 1e3)
      (Histogram.max_value h *. 1e3)
      paper_p999
  in
  let oc = open_out "BENCH_fig3.json" in
  Printf.fprintf oc "{\n  \"bench\": \"fig3\",\n  \"samples\": %d,\n%s,\n%s\n}\n" samples
    (series "average_lag" avg ~paper_p999:3.96)
    (series "max_lag" max ~paper_p999:208.6);
  close_out oc;
  Printf.printf "wrote BENCH_fig3.json\n%!"

let run () =
  Bench_util.header "Figure 3: storage server lag behind the log stream";
  let avg_hist = Histogram.create () and max_hist = Histogram.create () in
  let samples = ref 0 in
  Bench_util.with_sim ~cpu_scale:5.0
    (Bench_util.shard_evenly Config.default ~universe ~key_of:Bench_util.key)
    (fun cluster ->
      let* () = Bench_util.preload cluster ~universe in
      let ctx = Cluster.context cluster in
      let probe_machine = Process.fresh_machine ~dc:"dc1" 910_000 in
      let probe = Process.create ~name:"lag-probe" probe_machine in
      let stop = ref false in
      (* Steady writer load so versions keep advancing. *)
      let writer i =
        let db = Cluster.client cluster ~name:(Printf.sprintf "lagw-%d" i) in
        let rng = Engine.fork_rng () in
        let rec loop () =
          if !stop then Future.return ()
          else
            let* () = Engine.sleep 0.002 in
            let* () =
              Future.catch
                (fun () ->
                  let* _ =
                    Client.run db ~max_attempts:2 (fun tx ->
                        for _ = 1 to 10 do
                          Client.set tx
                            (Bench_util.rand_key rng universe)
                            (Bench_util.rand_value rng)
                        done;
                        Future.return ())
                  in
                  Future.return ())
                (fun _ -> Future.return ())
            in
            loop ()
        in
        loop ()
      in
      let writers = Future.all_unit (List.init 4 (fun i -> writer i)) in
      (* Occasional clogging, like the production disturbances behind the
         paper's 208 ms max-lag tail. *)
      let clogger =
        let net = ctx.Context.net in
        let machines = Cluster.worker_machines cluster in
        let rng = Engine.fork_rng () in
        let rec loop n =
          if n = 0 then Future.return ()
          else
            let* () = Engine.sleep (Fdb_util.Det_rng.exponential rng 3.0) in
            let m = machines.(Fdb_util.Det_rng.int rng (Array.length machines)) in
            Network.clog_machine net m.Process.machine_id
              (Engine.now () +. Fdb_util.Det_rng.float rng 0.15);
            loop (n - 1)
        in
        loop 8
      in
      let rec sample n =
        if n = 0 then Future.return ()
        else
          let* () = Engine.sleep 0.1 in
          let* lags =
            Future.all
              (Array.to_list
                 (Array.map
                    (fun ep ->
                      Future.catch
                        (fun () ->
                          let+ { Message.ss_lag; _ } =
                            Context.rpc ctx ~timeout:1.0 ~from:probe ep
                              Message.Ss_stats_req
                          in
                          Some ss_lag)
                        (fun _ -> Future.return None))
                    ctx.Context.storage_eps))
          in
          let lags = List.filter_map Fun.id lags in
          if lags <> [] then begin
            incr samples;
            Histogram.add avg_hist (Fdb_util.Stats.mean lags);
            Histogram.add max_hist (Fdb_util.Stats.maximum lags)
          end;
          sample (n - 1)
      in
      let* () = sample 300 in
      stop := true;
      let* () = writers in
      let* () = clogger in
      Future.return ());
  let report name h =
    Bench_util.row "%-22s mean %7.2f ms   p99 %7.2f ms   p99.9 %7.2f ms   max %7.2f ms\n"
      name
      (Histogram.mean h *. 1e3)
      (Histogram.percentile h 99.0 *. 1e3)
      (Histogram.percentile h 99.9 *. 1e3)
      (Histogram.max_value h *. 1e3)
  in
  Bench_util.row "samples: %d (paper: 12h production, p99.9 avg=3.96ms max=208.6ms)\n"
    !samples;
  report "average storage lag" avg_hist;
  report "max storage lag" max_hist;
  write_json ~samples:!samples ~avg:avg_hist ~max:max_hist
