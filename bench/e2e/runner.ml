(* One benchmark run of one workload: set-up, the open loop, the closed
   loop and the workload's checks, inside one simulation; then the
   report and the result line. *)

open Fdb_sim
open Future.Syntax
module H = Harness
module W = Workloads

type run = {
  setup_cpu : float;
  checksum : int64;
  client : (string * float) list;  (* virtual clock: repeats exactly for one seed *)
  cpu_us_per_txn : float;
  phase_cpu_s : float;  (* open loop *)
  closed_cpu_s : float;
  alloc_words_per_txn : float;
  layers : (string * float) list;  (* traced run only *)
  problems : string list;
  attempted : int;
  failed : int;
}

let ms x = x *. 1e3

(* The resolver's conflict check replayed over the traced run's committed
   write transactions, in CPU time: max_version over each read range,
   then note_write for each write, one version per transaction. The median
   of three replays, in ns per transaction. *)
let replay_conflicts log =
  let txns = List.rev log in
  let n = List.length txns in
  if n = 0 then 0.0
  else begin
    let module Rvm = Fdb_kv.Range_version_map in
    let once () =
      let rvm = Rvm.create ~rng:(Fdb_util.Det_rng.create 1L) () in
      let t0 = H.cpu () in
      List.iteri
        (fun i (reads, writes) ->
          List.iter (fun (from, until) -> ignore (Rvm.max_version rvm ~from ~until : int64)) reads;
          let v = Int64.of_int (i + 1) in
          List.iter (fun k -> Rvm.note_write rvm ~from:k ~until:(k ^ "\000") v) writes)
        txns;
      (H.cpu () -. t0) *. 1e9 /. float_of_int n
    in
    Samples.median_of_list (List.init 3 (fun _ -> once ()))
  end

let client_metrics (st : H.stats) ~peak extra =
  let p samples q = ms (Samples.percentile samples q) in
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let count s = float_of_int (Samples.count s) in
  let extra_or name = Option.value (List.assoc_opt name extra) ~default:0.0 in
  [
    ("peak_tps", peak);
    ("txn_p50_ms", p st.H.txn_lat 50.0);
    ("txn_p99_ms", p st.H.txn_lat 99.0);
    ("client.grv_p50_ms", p st.H.grv 50.0);
    ("grv_p99_ms", p st.H.grv 99.0);
    ("read_p50_ms", p st.H.read 50.0);
    ("client.read_p99_ms", p st.H.read 99.0);
    ("client.commit_p50_ms", p st.H.commit 50.0);
    ("client.commit_p99_ms", p st.H.commit 99.0);
    ("client.failed_frac", frac st.H.rec_failed st.H.rec_offered);
    ("client.attempts_per_commit", frac st.H.rec_attempts st.H.rec_committed);
    ("client.conflict_frac", frac st.H.conflicts st.H.commit_calls);
    ("client.range_p50_ms", p st.H.range 50.0);
    ("client.range_p99_ms", p st.H.range 99.0);
    ("client.outage_p50_s", extra_or "client.outage_p50_s");
    ("client.outage_max_s", extra_or "client.outage_max_s");
    ("client.outage_n", extra_or "client.outage_n");
    ("client.txn_samples", count st.H.txn_lat);
    ("client.grv_samples", count st.H.grv);
    ("client.read_samples", count st.H.read);
    ("client.commit_samples", count st.H.commit);
  ]

let run_once (w : W.t) ~seed ~seconds ~traced =
  let plan = w.W.plan seconds in
  let c0 = H.cpu () in
  let setup_cpu = ref 0.0 in
  let closed_cpu = ref 0.0 in
  let spans = Spans.create () in
  let h, o, peak, layer_open, problems, extra =
    H.simulate ~seed (fun () ->
        let* cluster = H.boot ~shards_per_storage:w.W.shards_per_storage ~value_of:w.W.value_of in
        setup_cpu := H.cpu () -. c0;
        let tracing =
          if traced then Some { H.spans; layers = Layers.create cluster; conflict_log = [] } else None
        in
        let h = { H.cluster; st = H.fresh_stats (); tracing; next_id = 0 } in
        let inst = w.W.start h plan in
        let mark name =
          Option.iter
            (fun tr ->
              Spans.mark tr.H.spans ~name ~time:(Engine.now ()) (Layers.snapshot tr.H.layers))
            tracing
        in
        let on_window () =
          Option.iter (fun tr -> Layers.begin_phase tr.H.layers) tracing;
          mark "open_loop_window_start"
        in
        let* o, () =
          Future.join2
            (H.open_loop h ~rate:w.W.rate ~warmup:plan.W.warmup ~measure:plan.W.open_s ~on_window
               ~draw:inst.W.draw)
            (inst.W.alongside_open ())
        in
        mark "open_loop_end";
        let layer_open =
          match tracing with
          | Some tr ->
              Layers.end_phase tr.H.layers ~txns:h.H.st.H.rec_offered
                ~user_bytes:h.H.st.H.user_bytes
          | None -> []
        in
        mark "closed_loop_start";
        let closed_cpu0 = H.cpu () in
        let* peak, () =
          Future.join2
            (H.closed_loop h ~clients:w.W.clients ~warmup:plan.W.warmup
               ~measure:plan.W.closed_s ~draw:inst.W.draw)
            (inst.W.alongside_closed ())
        in
        closed_cpu := H.cpu () -. closed_cpu0;
        mark "closed_loop_end";
        let* problems = inst.W.check () in
        Future.return (h, o, peak, layer_open, problems, inst.W.extra ()))
  in
  let st = h.H.st in
  let lost = st.H.issued - st.H.committed - st.H.failed in
  let problems =
    if lost > 0 then
      Printf.sprintf "harness: %d transactions ended in an unclassified error" lost :: problems
    else problems
  in
  let layers =
    match h.H.tracing with
    | None -> []
    | Some tr ->
        layer_open
        @ [
            ("client.self_p99_ms", ms (Samples.percentile (Spans.self_times tr.H.spans) 99.0));
            ("kv.check_note_ns", replay_conflicts tr.H.conflict_log);
            ("bench.gen_late_max_ms", ms o.H.gen_late_max);
          ]
  in
  ( {
      setup_cpu = !setup_cpu;
      checksum = Engine.last_run_checksum ();
      client = client_metrics st ~peak extra;
      cpu_us_per_txn = o.H.phase_cpu_s *. 1e6 /. float_of_int (max 1 st.H.rec_offered);
      phase_cpu_s = o.H.phase_cpu_s;
      closed_cpu_s = !closed_cpu;
      alloc_words_per_txn = o.H.alloc_words /. float_of_int (max 1 st.H.rec_offered);
      layers;
      problems;
      attempted = st.H.issued;
      failed = st.H.failed;
    },
    spans )

(* Set-up alone (boot plus preload), for the median of several set-ups. *)
let setup_only (w : W.t) ~seed =
  let c0 = H.cpu () in
  H.simulate ~seed (fun () ->
      let* _cluster = H.boot ~shards_per_storage:w.W.shards_per_storage ~value_of:w.W.value_of in
      Future.return ());
  H.cpu () -. c0

let setups_per_run = 3

let heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0

let end_to_end (r : run) ~setup_s =
  Metrics.select Metrics.end_to_end
    ((("setup_s", setup_s) :: ("peak_heap_mb", heap_mb ()) :: r.client))

(* The traced run must repeat the untraced run's event stream exactly:
   same checksum, same virtual-clock client metrics. *)
let perturbation ~(plain : run) ~(traced : run) =
  let diverged =
    List.filter_map
      (fun (name, v) ->
        match List.assoc_opt name traced.client with
        | Some v' when Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v') -> None
        | _ -> Some name)
      plain.client
  in
  (if Int64.equal plain.checksum traced.checksum then []
   else
     [
       Printf.sprintf "trace: checksum %016Lx traced vs %016Lx untraced" traced.checksum
         plain.checksum;
     ])
  @ if diverged = [] then [] else [ "trace: virtual metrics differ: " ^ String.concat ", " diverged ]

let per_layer ~(plain : run) ~(traced : run) =
  Metrics.select Metrics.per_layer
    (List.filter (fun (name, _) -> String.contains name '.') plain.client
    @ traced.layers
    @ [
        ("sim.cpu_us_per_txn", plain.cpu_us_per_txn);
        ("sim.alloc_words_per_txn", plain.alloc_words_per_txn);
        ("sim.phase_cpu_s", plain.phase_cpu_s);
        ("bench.trace_overhead_frac", (traced.phase_cpu_s -. plain.phase_cpu_s) /. plain.phase_cpu_s);
      ])

(* ---------- the command ---------- *)

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  ( x.Metrics.name,
                    Json.Obj [ ("value", Json.Num x.Metrics.value); ("unit", Json.Str x.Metrics.unit_) ] ))
                metrics) );
       ])

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-30s %16.6g %s\n" x.Metrics.name x.Metrics.value x.Metrics.unit_)
    metrics

let trace_dir = "_bench"

(* Prints the report and the result line; false when a check failed. *)
let run_workload (w : W.t) ~seed ~seconds ~trace =
  Printf.printf "fdb_bench: workload %s, seed %Ld, %g s, trace %d\n%!" w.W.name seed seconds
    (if trace then 1 else 0);
  let problems, attempted, failed, metrics =
    if not trace then begin
      let extra_setups = List.init (setups_per_run - 1) (fun _ -> setup_only w ~seed) in
      let r, _ = run_once w ~seed ~seconds ~traced:false in
      let setups = r.setup_cpu :: extra_setups in
      let e2e = end_to_end r ~setup_s:(Samples.median_of_list setups) in
      print_table "client, virtual clock"
        (List.map (fun (name, value) -> Metrics.make name value) r.client);
      Printf.printf
        "CPU: set-ups %s s, open loop %.3f s (%.1f us per transaction), closed loop %.3f s; checksum %016Lx\n"
        (String.concat " " (List.map (Printf.sprintf "%.4f") setups))
        r.phase_cpu_s r.cpu_us_per_txn r.closed_cpu_s r.checksum;
      (r.problems, r.attempted, r.failed, e2e)
    end
    else begin
      let plain, _ = run_once w ~seed ~seconds ~traced:false in
      let traced, spans = run_once w ~seed ~seconds ~traced:true in
      if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
      let path = Filename.concat trace_dir (Printf.sprintf "trace-%s-%Ld.json" w.W.name seed) in
      Spans.write spans path;
      Printf.printf "checksum %016Lx traced, %016Lx untraced; trace written to %s\n" traced.checksum
        plain.checksum path;
      ( plain.problems @ traced.problems @ perturbation ~plain ~traced,
        plain.attempted,
        plain.failed,
        per_layer ~plain ~traced )
    end
  in
  print_table (if trace then "per-layer" else "end-to-end") metrics;
  List.iter (Printf.printf "PROBLEM: %s\n") problems;
  let correct = problems = [] in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  correct
