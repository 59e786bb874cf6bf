(* Storage balance under the 90/10 mix (§5.2), checked against the
   bottleneck model (ROADMAP item 12). Every service time is a Params
   constant and the placement is Config.default's shard map, so each
   storage server's CPU demand per transaction, D_r, follows without
   running anything:
   - a point read costs [storage_per_point_read] on one member of its
     key's team; at best the members share a shard's reads evenly;
   - a write costs its bytes' apply ([storage_per_apply_byte]) on every
     member. The fixed [storage_per_apply] is paid once per version, which
     the mutations of a whole commit batch share; D_r leaves it out.
   So X_max = 1 / max_r D_r bounds the closed loop's throughput from
   above, and a floor set against it is if anything strict. The loop runs
   Figure 8's 90/10 transactions at 1/20 scale and must reach 0.95 X_max:
   a replica that idles while its teammate queues is waiting that is not
   work, and shows as the gap. Everything runs on the virtual clock, so
   the result repeats exactly. *)

open Fdb_sim
open Fdb_core
open Future.Syntax

let scale = 20.0
let floor_ratio = 0.95

(* Figure 8's mix: 80% of transactions read 10 keys, 20% read 5 and
   write 5. *)
let reads_per_txn = (0.8 *. 10.0) +. (0.2 *. 5.0)
let writes_per_txn = 0.2 *. 5.0

(* A mutation's mean size: a 15-byte key and a value of 8..100 bytes. *)
let mutation_bytes = float_of_int (String.length (Bench_util.key 0)) +. 54.0

(* D_r in seconds per transaction, by storage server, from the shard map
   and Params alone. *)
let demand cluster =
  let ctx = Cluster.context cluster in
  let universe = Fig8.universe in
  let read_share = Array.make (Array.length ctx.Context.storage_eps) 0.0 in
  let write_share = Array.make (Array.length read_share) 0.0 in
  for i = 0 to universe - 1 do
    let team = Shard_map.team_for_key ctx.Context.shard_map (Bench_util.key i) in
    let members = float_of_int (List.length team) in
    List.iter
      (fun ss ->
        read_share.(ss) <- read_share.(ss) +. (1.0 /. members);
        write_share.(ss) <- write_share.(ss) +. 1.0)
      team
  done;
  let read = Params.cpu Params.storage_per_point_read in
  let apply = Params.cpu (Params.storage_per_apply_byte *. mutation_bytes) in
  Array.mapi
    (fun ss r ->
      ((reads_per_txn *. read *. r) +. (writes_per_txn *. apply *. write_share.(ss)))
      /. float_of_int universe)
    read_share

let storage_procs cluster =
  Array.init
    (Array.length (Cluster.context cluster).Context.storage_eps)
    (fun ss ->
      let name = Printf.sprintf "storage-%d" ss in
      Cluster.worker_machines cluster
      |> Array.to_list
      |> List.concat_map (fun m -> m.Process.machine_processes)
      |> List.find (fun p -> p.Process.name = name))

let write_json ~smoke ~clients ~x ~x_max ~d ~util =
  let oc = open_out "BENCH_balance.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"name\": \"balance\",\n";
  Printf.fprintf oc "  \"smoke\": %b,\n" smoke;
  Printf.fprintf oc "  \"cpu_scale\": %.0f,\n" scale;
  Printf.fprintf oc "  \"clients\": %d,\n" clients;
  Printf.fprintf oc "  \"reads_per_txn\": %.1f,\n" reads_per_txn;
  Printf.fprintf oc "  \"writes_per_txn\": %.1f,\n" writes_per_txn;
  Printf.fprintf oc "  \"measured_tps\": %.1f,\n" x;
  Printf.fprintf oc "  \"x_max_tps\": %.1f,\n" x_max;
  Printf.fprintf oc "  \"ratio\": %.3f,\n" (x /. x_max);
  Printf.fprintf oc "  \"floor_ratio\": %.2f,\n" floor_ratio;
  Printf.fprintf oc "  \"storage\": [\n";
  Array.iteri
    (fun ss u ->
      Printf.fprintf oc
        "    {\"ss\": %d, \"demand_ms_per_txn\": %.4f, \"util_predicted\": %.3f, \
         \"util_measured\": %.3f}%s\n"
        ss (d.(ss) *. 1e3) (x *. d.(ss)) u
        (if ss + 1 < Array.length util then "," else ""))
    util;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_balance.json\n%!"

let run ?(smoke = false) () =
  Bench_util.header "Storage balance: 90/10 closed loop against the bottleneck model";
  let clients = 64 in
  let warmup = 1.0 and measure = if smoke then 2.0 else 6.0 in
  let config =
    Bench_util.shard_evenly Config.default ~universe:Fig8.universe ~key_of:Bench_util.key
  in
  let x, d, util =
    Bench_util.with_sim ~cpu_scale:scale config (fun cluster ->
        let* () = Bench_util.preload cluster ~universe:Fig8.universe in
        let procs = storage_procs cluster in
        let used () = Array.map (fun p -> p.Process.cpu_used) procs in
        (* Sample each server's CPU over the loop's measuring window. *)
        let window =
          let* () = Engine.sleep warmup in
          let before = used () in
          let+ () = Engine.sleep measure in
          Array.mapi (fun ss u -> (u -. before.(ss)) /. measure) (used ())
        in
        let* x, _, _, _ =
          Bench_util.closed_loop cluster ~clients ~warmup ~measure ~txn:Fig8.mix_txn
        in
        let+ util = window in
        (x, demand cluster, util))
  in
  let x_max = 1.0 /. Array.fold_left Float.max 0.0 d in
  Bench_util.row "%-4s %16s %14s %13s\n" "ss" "D_r (ms/txn)" "U predicted" "U measured";
  Array.iteri
    (fun ss u ->
      Bench_util.row "%-4d %16.4f %14.3f %13.3f\n" ss (d.(ss) *. 1e3) (x *. d.(ss)) u)
    util;
  Printf.printf "closed loop %.1f txn/s, X_max %.1f txn/s: %.3f of X_max (floor %.2f)\n"
    x x_max (x /. x_max) floor_ratio;
  write_json ~smoke ~clients ~x ~x_max ~d ~util;
  if x < floor_ratio *. x_max then
    failwith
      (Printf.sprintf "storage balance: %.1f txn/s is %.3f of X_max %.1f, below %.2f" x
         (x /. x_max) x_max floor_ratio)
