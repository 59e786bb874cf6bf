(* Shared machinery for the figure-reproduction benches: cluster bring-up,
   preloading, closed-loop (saturation) and open-loop (latency) load
   generators, and measurement windows. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng
module Histogram = Fdb_util.Histogram

(* The benches run the paper's experiments at 1/10 op rate by inflating CPU
   service times 10x (Params.cpu_scale); shapes are preserved. *)
let default_scale = 10.0

(* Process CPU time, for the benches that measure the OCaml code's own cost
   rather than the simulated cluster's virtual-clock time. *)
(* fdb-lint: allow R1 -- the code's own CPU cost is the metric *)
let cpu () = Sys.time ()

let with_sim ?(seed = 42L) ?(cpu_scale = default_scale) config body =
  Engine.run ~seed ~max_time:1e6 (fun () ->
      Params.cpu_scale := cpu_scale;
      let cluster = Cluster.create ~config () in
      let* () = Cluster.wait_ready ~timeout:120.0 cluster in
      Future.protect
        ~finally:(fun () -> Params.cpu_scale := 1.0)
        (fun () -> body cluster))

(* Shard the benchmark key population evenly (real FDB's DataDistributor
   would split shards by observed size; our static map takes the split
   points from the config). *)
let shard_evenly config ~universe ~key_of =
  let shards = max 1 (Config.storage_count config * config.Config.shards_per_storage) in
  let boundaries =
    List.init (shards - 1) (fun i -> key_of ((i + 1) * universe / shards))
  in
  { config with Config.shard_boundaries = boundaries }

(* Fixed key universe: 16-byte keys, values 8..100 bytes (mean 54), §5.2. *)
let key i = Printf.sprintf "bench/%09d" i
let rand_key rng universe = key (Rng.int rng universe)
let rand_value rng = Rng.alphanum rng (8 + Rng.int rng 93)

(* Bulk preload with CPU costs suspended (the paper pre-populates out of
   band); restores the scale and lets the pipeline drain. *)
let preload cluster ~universe =
  let saved = !Params.cpu_scale in
  Params.cpu_scale := 0.0;
  let db = Cluster.client cluster ~name:"preload" in
  let rng = Engine.fork_rng () in
  let batch = 500 in
  let rec load i =
    if i >= universe then Future.return ()
    else begin
      let hi = min universe (i + batch) in
      let* _ =
        Client.run db (fun tx ->
            for j = i to hi - 1 do
              Client.set tx (key j) (rand_value rng)
            done;
            Future.return ())
      in
      load hi
    end
  in
  let* () = load 0 in
  Params.cpu_scale := saved;
  Engine.sleep 1.0

(* ---------- closed loop (figure 8): saturate and measure ---------- *)

type window = {
  mutable measuring : bool;
  mutable txns : int;
  mutable ops : int;
  mutable bytes : int;
  mutable aborts : int;
}

let closed_loop cluster ~clients ~warmup ~measure ~txn =
  let w = { measuring = false; txns = 0; ops = 0; bytes = 0; aborts = 0 } in
  let stop = ref false in
  let runner i =
    let db = Cluster.client cluster ~name:(Printf.sprintf "load-%d" i) in
    let rng = Engine.fork_rng () in
    let rec loop () =
      if !stop then Future.return ()
      else
        let* () =
          Future.catch
            (fun () ->
              let* ops, bytes = txn db rng in
              if w.measuring then begin
                w.txns <- w.txns + 1;
                w.ops <- w.ops + ops;
                w.bytes <- w.bytes + bytes
              end;
              Future.return ())
            (function
              | Error.Fdb _ ->
                  if w.measuring then w.aborts <- w.aborts + 1;
                  Future.return ()
              | e -> Future.fail e)
        in
        loop ()
    in
    loop ()
  in
  let jobs = List.init clients runner in
  let all = Future.all_unit jobs in
  let* () = Engine.sleep warmup in
  w.measuring <- true;
  let t0 = Engine.now () in
  let* () = Engine.sleep measure in
  w.measuring <- false;
  let elapsed = Engine.now () -. t0 in
  stop := true;
  let* () = all in
  Future.return
    ( float_of_int w.txns /. elapsed,
      float_of_int w.ops /. elapsed,
      float_of_int w.bytes /. elapsed,
      w.aborts )

(* ---------- open loop (figure 9): offered rate, latency histograms ---------- *)

type latencies = {
  grv : Histogram.t;
  read : Histogram.t;
  commit : Histogram.t;
  mutable completed_ops : int;
  mutable failed : int;
}

let fresh_latencies () =
  {
    grv = Histogram.create ();
    read = Histogram.create ();
    commit = Histogram.create ();
    completed_ops = 0;
    failed = 0;
  }

(* One 90/10 transaction (§5.2): 80% point-reads-of-10, 20% 5-read-5-write;
   records GRV / read / commit latencies into [lat]. *)
let mixed_txn ~universe db rng lat measuring =
  let is_write = Rng.chance rng 0.2 in
  let tx = Client.begin_tx db in
  let t0 = Engine.now () in
  let* _rv = Client.get_read_version tx in
  if measuring () then Histogram.add lat.grv (Engine.now () -. t0);
  let n_reads = if is_write then 5 else 10 in
  let rec reads i =
    if i = n_reads then Future.return ()
    else begin
      let t1 = Engine.now () in
      let* _ = Client.get tx (rand_key rng universe) in
      if measuring () then Histogram.add lat.read (Engine.now () -. t1);
      reads (i + 1)
    end
  in
  let* () = reads 0 in
  if is_write then
    for _ = 1 to 5 do
      Client.set tx (rand_key rng universe) (rand_value rng)
    done;
  if is_write then begin
    let t2 = Engine.now () in
    let* _ = Client.commit tx in
    if measuring () then Histogram.add lat.commit (Engine.now () -. t2);
    if measuring () then lat.completed_ops <- lat.completed_ops + 10;
    Future.return ()
  end
  else begin
    if measuring () then lat.completed_ops <- lat.completed_ops + n_reads;
    Future.return ()
  end

let open_loop cluster ~universe ~rate ~warmup ~measure =
  let lat = fresh_latencies () in
  let measuring = ref false in
  let stop_at = Engine.now () +. warmup +. measure in
  let rng = Engine.fork_rng () in
  (* A pool of client handles shared by arrivals (connection reuse). *)
  let dbs =
    Array.init 16 (fun i -> Cluster.client cluster ~name:(Printf.sprintf "open-%d" i))
  in
  (* ops/s offered -> txns/s: average ops per txn is 10 reads or 10 r+w. *)
  let txn_rate = rate /. 10.0 in
  let rec arrivals () =
    if Engine.now () >= stop_at then Future.return ()
    else
      let* () = Engine.sleep (Rng.exponential rng (1.0 /. txn_rate)) in
      let db = dbs.(Rng.int rng (Array.length dbs)) in
      Engine.spawn "open-txn" (fun () ->
          Future.catch
            (fun () -> mixed_txn ~universe db rng lat (fun () -> !measuring))
            (fun _ ->
              if !measuring then lat.failed <- lat.failed + 1;
              Future.return ()));
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
  (* Let stragglers finish recording nothing. *)
  let* () = Engine.sleep 1.0 in
  Future.return (lat, float_of_int lat.completed_ops /. elapsed)

(* ---------- output helpers ---------- *)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let row fmt = Printf.printf fmt

(* Per-role latency percentile table from the cluster's metrics plane — the
   same roll-up document `fdb_sim status --json` emits, as bench output. *)
let print_percentiles (doc : Fdb_obs.Rollup.doc) =
  header "Role latency percentiles (from Fdb_obs)";
  row "%-12s %-16s %9s %10s %10s %10s %10s\n" "role" "metric" "count" "mean ms"
    "p50 ms" "p99 ms" "max ms";
  List.iter
    (fun rd ->
      List.iter
        (fun (name, l) ->
          let { Fdb_obs.Rollup.l_count; l_mean; l_p50; l_p99; l_max } = l in
          row "%-12s %-16s %9d %10.3f %10.3f %10.3f %10.3f\n" rd.Fdb_obs.Rollup.rd_role
            name l_count (l_mean *. 1e3) (l_p50 *. 1e3) (l_p99 *. 1e3) (l_max *. 1e3))
        rd.Fdb_obs.Rollup.rd_latencies)
    doc.Fdb_obs.Rollup.d_roles

let obs_percentiles cluster = print_percentiles (Cluster.status_doc cluster)
