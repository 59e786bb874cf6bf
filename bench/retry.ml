(* Client retries under contention: a burst of read-modify-write
   transactions on a few hot counters, run through [Client.run] on the
   default cluster. Conflicts make the resolver reject transactions
   (Algorithm 1), and each retry sleeps a backoff first. The bench reports
   the virtual-clock transaction latency (retries included), the retries
   taken, and the mean sleep before a first retry, measured from the
   instant the first attempt fails to the instant the second one starts.

   The backoff rule sleeps b + U(0, b) with b = 10 ms before a first
   retry, so that sleep is always under 20 ms; the run fails if the mean
   reaches 20 ms, or if no transaction retried at all. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng
module Histogram = Fdb_util.Histogram

let first_sleep_bound = 0.020

type tally = {
  latency : Histogram.t;  (* per transaction, first attempt to commit *)
  first_sleeps : Histogram.t;
  mutable retries : int;
  mutable committed : int;
}

let bump = function Some v -> string_of_int (int_of_string v + 1) | None -> "1"

(* One counter increment through the retry loop. *)
let increment db rng ~hot tally =
  let key = Bench_util.key (Rng.int rng hot) in
  let t0 = Engine.now () in
  let attempts = ref 0 and failed_at = ref 0.0 in
  let+ () =
    Client.run db (fun tx ->
        incr attempts;
        if !attempts = 2 then Histogram.add tally.first_sleeps (Engine.now () -. !failed_at);
        Future.catch
          (fun () ->
            let* v = Client.get tx key in
            Client.set tx key (bump v);
            let+ _ = Client.commit tx in
            ())
          (fun e ->
            failed_at := Engine.now ();
            Future.fail e))
  in
  Histogram.add tally.latency (Engine.now () -. t0);
  tally.retries <- tally.retries + !attempts - 1;
  tally.committed <- tally.committed + 1

let write_json ~smoke ~seed ~clients ~hot ~per_client tally ~mean_first_sleep =
  let oc = open_out "BENCH_retry.json" in
  let ms s = s *. 1e3 in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"name\": \"retry\",\n";
  Printf.fprintf oc "  \"smoke\": %b,\n" smoke;
  Printf.fprintf oc "  \"config\": \"Config.default\",\n";
  Printf.fprintf oc "  \"seed\": %Ld,\n" seed;
  Printf.fprintf oc "  \"clients\": %d,\n" clients;
  Printf.fprintf oc "  \"hot_keys\": %d,\n" hot;
  Printf.fprintf oc "  \"txns\": %d,\n" (clients * per_client);
  Printf.fprintf oc "  \"txn_p50_ms\": %.3f,\n" (ms (Histogram.percentile tally.latency 50.0));
  Printf.fprintf oc "  \"txn_p99_ms\": %.3f,\n" (ms (Histogram.percentile tally.latency 99.0));
  Printf.fprintf oc "  \"retries\": %d,\n" tally.retries;
  Printf.fprintf oc "  \"first_retries\": %d,\n" (Histogram.count tally.first_sleeps);
  Printf.fprintf oc "  \"first_retry_sleep_mean_ms\": %.3f,\n" (ms mean_first_sleep);
  Printf.fprintf oc "  \"first_retry_sleep_bound_ms\": %.1f\n" (ms first_sleep_bound);
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote BENCH_retry.json\n%!"

let run ?(smoke = false) () =
  Bench_util.header "Client retries: contended read-modify-writes on hot counters";
  let seed = 29L in
  let clients = 16 and hot = 4 in
  let per_client = if smoke then 10 else 50 in
  let tally =
    {
      latency = Histogram.create ();
      first_sleeps = Histogram.create ();
      retries = 0;
      committed = 0;
    }
  in
  let total =
    Bench_util.with_sim ~seed Config.default (fun cluster ->
        let client i =
          let db = Cluster.client cluster ~name:(Printf.sprintf "rmw-%d" i) in
          let rng = Engine.fork_rng () in
          let rec loop n =
            if n = 0 then Future.return ()
            else
              let* () = increment db rng ~hot tally in
              loop (n - 1)
          in
          loop per_client
        in
        let* () = Future.all_unit (List.init clients client) in
        let db = Cluster.client cluster ~name:"check" in
        Client.run db (fun tx ->
            let+ counts =
              Future.all
                (List.init hot (fun i ->
                     Future.map (Client.get tx (Bench_util.key i)) (function
                       | Some v -> int_of_string v
                       | None -> 0)))
            in
            List.fold_left ( + ) 0 counts))
  in
  let mean_first_sleep = Histogram.mean tally.first_sleeps in
  Printf.printf "transactions  : %d committed, counters total %d\n" tally.committed total;
  Printf.printf "txn latency   : p50 %.2f ms, p99 %.2f ms (virtual clock)\n"
    (Histogram.percentile tally.latency 50.0 *. 1e3)
    (Histogram.percentile tally.latency 99.0 *. 1e3);
  Printf.printf "retries       : %d (%d first retries)\n" tally.retries
    (Histogram.count tally.first_sleeps);
  Printf.printf "first sleep   : mean %.2f ms (bound %.0f ms)\n" (mean_first_sleep *. 1e3)
    (first_sleep_bound *. 1e3);
  write_json ~smoke ~seed ~clients ~hot ~per_client tally ~mean_first_sleep;
  if total <> tally.committed then
    failwith
      (Printf.sprintf "retry bench: counters total %d, but %d increments committed" total
         tally.committed);
  if Histogram.count tally.first_sleeps = 0 then
    failwith "retry bench: no transaction retried, so the backoff went unmeasured";
  if mean_first_sleep >= first_sleep_bound then
    failwith
      (Printf.sprintf "retry bench: mean sleep before a first retry %.2f ms >= %.0f ms"
         (mean_first_sleep *. 1e3) (first_sleep_bound *. 1e3))
