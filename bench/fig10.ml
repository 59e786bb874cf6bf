(* Figure 10: CDF of reconfiguration (transaction system recovery)
   duration. The paper collects 289 production reconfigurations: median
   3.08 s, 90th percentile 5.28 s, all well under 10 s because recovery
   depends only on metadata sizes. We trigger repeated recoveries under
   light load across several seeds and measure client-visible write
   outage: from the fault to the first successful commit after it.

   Faults come in two classes, one per failure detector:
   - process: reboot the sequencer process, or one current-generation
     LogServer process. Its machine stays up and resets the long-poll its
     monitor holds on the dead process, so the generation ends one network
     delay later, without waiting for a tick.
   - machine: reboot every process on the sequencer's machine. A machine
     that is down is silent, so only the long-poll's timeout notices it.

   Each seed alternates the two classes. The run fails when the process
   class's median outage reaches Params.heartbeat_interval, or when the
   machine class's median reaches the paper's 3.08 s. The process bound
   comes from the mechanism: detection is an event, so the outage is
   recovery work plus the probe writer's 0.1 s retry sleeps, while any
   heartbeat tick left in the path would put the median near 0.3 s. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng
module Stats = Fdb_util.Stats

let paper_median = 3.08
let paper_p90 = 5.28

type fault_class = Process_fault | Machine_fault

let class_name = function Process_fault -> "process" | Machine_fault -> "machine"

let find_processes cluster prefix =
  Array.to_list (Cluster.worker_machines cluster)
  |> List.concat_map (fun m -> m.Process.machine_processes)
  |> List.filter (fun p ->
         p.Process.alive
         && String.length p.Process.name >= String.length prefix
         && String.sub p.Process.name 0 (String.length prefix) = prefix)

(* Stale role processes of dead generations linger; only a fault on a
   CURRENT-generation role causes an outage. Old sequencers are inert, so
   a process fault reboots every alive one; the current sequencer is the
   newest (highest pid), and its machine is the one a machine fault
   reboots. Tlogs carry their epoch in the process name. *)
let inject rng cluster ~epoch cls =
  let delay () = 0.5 +. Rng.float rng 2.0 in
  let sequencers = find_processes cluster "sequencer" in
  match cls with
  | Process_fault ->
      if Rng.bool rng then List.iter (fun p -> Engine.reboot p ~delay:(delay ()) ()) sequencers
      else (
        match find_processes cluster (Printf.sprintf "tlog-%d." epoch) with
        | p :: _ -> Engine.reboot p ~delay:(delay ()) ()
        | [] -> ())
  | Machine_fault -> (
      let newest a b = if b.Process.pid > a.Process.pid then b else a in
      match sequencers with
      | [] -> ()
      | p :: ps ->
          let current = List.fold_left newest p ps in
          Fault_injector.reboot_machine ~delay:(delay ()) current.Process.machine)

(* [faults_per_class] outages of each class, alternating, as
   (class, seconds) pairs. *)
let one_seed ~faults_per_class seed =
  Engine.run ~seed ~max_time:1e5 (fun () ->
      let cluster = Cluster.create ~config:Config.default () in
      let* () = Cluster.wait_ready cluster in
      let db = Cluster.client cluster ~name:"rec-probe" in
      let rng = Engine.fork_rng () in
      let try_write () =
        Future.catch
          (fun () ->
            let tx = Client.begin_tx db in
            Client.set tx "rec/probe" (string_of_float (Engine.now ()));
            let* _ = Engine.timeout 0.5 (Client.commit tx) in
            Future.return true)
          (fun _ -> Future.return false)
      in
      (* Retry a write every [every] seconds until one succeeds. *)
      let rec until_written every =
        let* ok = try_write () in
        if ok then Future.return ()
        else
          let* () = Engine.sleep every in
          until_written every
      in
      let rec measure_one i acc =
        if i = 2 * faults_per_class then Future.return (List.rev acc)
        else begin
          let cls = if i mod 2 = 0 then Process_fault else Machine_fault in
          (* Make sure writes work, then inject the failure. *)
          let* () = until_written 0.2 in
          let* epoch = Cluster.current_epoch cluster in
          let t_fault = Engine.now () in
          inject rng cluster ~epoch cls;
          let* () = until_written 0.1 in
          let d = Engine.now () -. t_fault in
          let* () = Engine.sleep 2.0 in
          measure_one (i + 1) ((cls, d) :: acc)
        end
      in
      measure_one 0 [])

let print_cdf durations =
  let n = List.length durations in
  let sorted = List.sort compare durations in
  Bench_util.row "%-12s %10s\n" "duration(s)" "CDF";
  List.iteri
    (fun i d ->
      let f = float_of_int (i + 1) /. float_of_int n in
      if i = 0 || i = n - 1 || i mod (max 1 (n / 12)) = 0 then
        Bench_util.row "%-12.2f %10.2f\n" d f)
    sorted

let class_json oc ~last cls durations ~bound =
  Printf.fprintf oc "    %S: {\n" (class_name cls);
  Printf.fprintf oc "      \"detector\": %S,\n"
    (match cls with Process_fault -> "refused" | Machine_fault -> "heartbeat timeout");
  Printf.fprintf oc "      \"n\": %d,\n" (List.length durations);
  Printf.fprintf oc "      \"median_s\": %.3f,\n" (Stats.median durations);
  Printf.fprintf oc "      \"p90_s\": %.3f,\n" (Stats.percentile durations 90.0);
  Printf.fprintf oc "      \"max_s\": %.3f,\n" (Stats.maximum durations);
  Printf.fprintf oc "      \"paper_median_s\": %.2f,\n" paper_median;
  Printf.fprintf oc "      \"paper_p90_s\": %.2f,\n" paper_p90;
  Printf.fprintf oc "      \"median_bound_s\": %.2f\n" bound;
  Printf.fprintf oc "    }%s\n" (if last then "" else ",")

let run ?(smoke = false) () =
  Bench_util.header "Figure 10: reconfiguration duration CDF";
  let seeds = if smoke then [ 11; 22 ] else [ 11; 22; 33; 44; 55; 66 ] in
  let faults_per_class = if smoke then 4 else 8 in
  let outages =
    List.concat_map (fun seed -> one_seed ~faults_per_class (Int64.of_int seed)) seeds
  in
  let of_class cls = List.filter_map (fun (c, d) -> if c = cls then Some d else None) outages in
  (* Each class with the median outage it must stay under. *)
  let classes =
    [ (Process_fault, Params.heartbeat_interval); (Machine_fault, paper_median) ]
  in
  Bench_util.row "%d reconfigurations (paper: 289; median %.2fs, p90 %.2fs)\n"
    (List.length outages) paper_median paper_p90;
  List.iter
    (fun (cls, bound) ->
      let ds = of_class cls in
      Bench_util.row "\n%s faults (%d), median bound %.2fs\n" (class_name cls)
        (List.length ds) bound;
      print_cdf ds;
      Bench_util.row "median %.2fs   p90 %.2fs   max %.2fs\n" (Stats.median ds)
        (Stats.percentile ds 90.0) (Stats.maximum ds))
    classes;
  let oc = open_out "BENCH_fig10.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"name\": \"fig10\",\n";
  Printf.fprintf oc "  \"smoke\": %b,\n" smoke;
  Printf.fprintf oc "  \"config\": \"Config.default\",\n";
  Printf.fprintf oc "  \"seeds\": [%s],\n" (String.concat ", " (List.map string_of_int seeds));
  Printf.fprintf oc "  \"faults_per_class_per_seed\": %d,\n" faults_per_class;
  Printf.fprintf oc "  \"classes\": {\n";
  List.iteri
    (fun i (cls, bound) ->
      class_json oc ~last:(i = List.length classes - 1) cls (of_class cls) ~bound)
    classes;
  Printf.fprintf oc "  }\n";
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote BENCH_fig10.json\n%!";
  List.iter
    (fun (cls, bound) ->
      let median = Stats.median (of_class cls) in
      if median >= bound then
        failwith
          (Printf.sprintf "fig10 bench: %s-fault median outage %.2f s >= %.2f s"
             (class_name cls) median bound))
    classes
