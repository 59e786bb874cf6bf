(* Two halves:

   1. Resolver data-structure microbench (the PR's before/after record):
      range-max queries and window expiry against a ~100k-entry [lastCommit]
      history, comparing the version-augmented skiplist descent against the
      pre-augmentation linear algorithms (kept here, verbatim, as the
      baseline). Results go to stdout and to BENCH_conflict.json.

   2. §5.1: "the average transaction conflict rate is 0.73%" on the
      multi-tenant production cluster. We run a low-contention 90/10 mix
      (many clients, wide key space — the paper's multi-tenant shape) and
      report committed vs conflicted transactions. Skipped in smoke mode. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng
module Rvm = Fdb_kv.Range_version_map

(* ---------- the pre-augmentation resolver history, as the baseline ----------

   The linear algorithms the augmented walks replaced, over a balanced map
   with the same entry layout: max_version scans every entry in the range
   (O(k)), and expire rebuilds the whole history from its bindings every
   tick. *)
module Linear = struct
  module M = Map.Make (String)

  type t = { mutable m : int64 M.t; mutable oldest : int64 }

  let create () = { m = M.singleton "" 0L; oldest = 0L }

  let covering_version t key =
    match M.find_last_opt (fun k -> k <= key) t.m with Some (_, v) -> v | None -> 0L

  let note_write t ~from ~until version =
    if from < until then begin
      if not (M.mem until t.m) then t.m <- M.add until (covering_version t until) t.m;
      let prev = covering_version t from in
      Seq.iter
        (fun (k, _) -> t.m <- M.remove k t.m)
        (Seq.take_while (fun (k, _) -> k < until) (M.to_seq_from from t.m));
      t.m <- M.add from (if version > prev then version else prev) t.m
    end

  let max_version t ~from ~until =
    if from >= until then 0L
    else
      Seq.fold_left
        (fun best (_, v) -> if v > best then v else best)
        (covering_version t from)
        (Seq.take_while (fun (k, _) -> k < until) (M.to_seq_from from t.m))

  let expire t ~before =
    if before > t.oldest then begin
      t.oldest <- before;
      let rec walk prev_old = function
        | [] -> ()
        | (k, v) :: rest ->
            let old = v < before in
            if old && prev_old then t.m <- M.remove k t.m;
            walk old rest
      in
      match M.bindings t.m with
      | [] -> ()
      | (_, v0) :: rest -> walk (v0 < before) rest
    end

  let entry_count t = M.cardinal t.m
end

(* ---------- microbench ---------- *)

let target_entries = 100_000
let key_universe = 1_000_000
let mk_key i = Printf.sprintf "%08d" i

(* Identical history into both structures: random single-key writes at
   increasing versions until the map holds ~[target_entries] entries. *)
let build_histories () =
  let rng = Rng.create 2024L in
  let lin = Linear.create () in
  let aug = Rvm.create ~rng:(Rng.create 5L) () in
  let version = ref 0L in
  while Rvm.entry_count aug < target_entries do
    for _ = 1 to 1_000 do
      version := Int64.add !version 1L;
      let k = mk_key (Rng.int rng key_universe) in
      let k_end = k ^ "\x00" in
      Linear.note_write lin ~from:k ~until:k_end !version;
      Rvm.note_write aug ~from:k ~until:k_end !version
    done
  done;
  (lin, aug, !version)

let mk_queries ~span n =
  let rng = Rng.create 7L in
  Array.init n (fun _ ->
      let a = Rng.int rng key_universe in
      let b = if span = 0 then a + 1 + Rng.int rng key_universe else a + span in
      (mk_key a, mk_key (min b key_universe)))

(* Bechamel OLS estimate in ns/op for one thunk. *)
let time_ns ~smoke name fn =
  let open Bechamel in
  let open Toolkit in
  let test = Test.make ~name (Staged.stage fn) in
  let quota = if smoke then Time.second 0.05 else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimate = ref nan in
  (* fdb-lint: allow R2 -- bechamel hands back a raw Hashtbl; wall-clock bench output, not simulation state *)
  Hashtbl.iter
    (fun _key v ->
      match Analyze.OLS.estimates v with
      | Some [ ns ] -> estimate := ns
      | _ -> ())
    results;
  Bench_util.row "%-42s %12.0f ns/op\n" name !estimate;
  !estimate

type pair = { before_ns : float; after_ns : float }

let speedup p = p.before_ns /. p.after_ns

let micro ~smoke () =
  Bench_util.header
    "Resolver history: version-augmented skiplist vs linear scan (before/after)";
  let lin, aug, version = build_histories () in
  Bench_util.row "history: %d entries (linear: %d), last version %Ld\n"
    (Rvm.entry_count aug) (Linear.entry_count lin) version;
  (* Equivalence guard: both structures answer every probe identically.
     (Wide probes cost ~ms each on the linear side: fewer in smoke mode.) *)
  let probes = if smoke then 100 else 2_000 in
  let mismatches = ref 0 in
  Array.iter
    (fun (from, until) ->
      if Linear.max_version lin ~from ~until <> Rvm.max_version aug ~from ~until
      then incr mismatches)
    (Array.append (mk_queries ~span:0 probes) (mk_queries ~span:1_000 probes));
  Bench_util.row "equivalence: %s (%d probes)\n"
    (if !mismatches = 0 then "ok" else Printf.sprintf "%d MISMATCHES" !mismatches)
    (2 * probes);
  let run_queries queries f =
    let i = ref 0 in
    fun () ->
      let from, until = queries.(!i land 4095) in
      incr i;
      ignore (f ~from ~until : int64)
  in
  let wide = mk_queries ~span:0 4096 in
  let short = mk_queries ~span:1_000 4096 in
  let wide_pair =
    {
      before_ns = time_ns ~smoke "range max, wide   (linear scan)" (run_queries wide (Linear.max_version lin));
      after_ns = time_ns ~smoke "range max, wide   (augmented)" (run_queries wide (Rvm.max_version aug));
    }
  in
  let short_pair =
    {
      before_ns = time_ns ~smoke "range max, short  (linear scan)" (run_queries short (Linear.max_version lin));
      after_ns = time_ns ~smoke "range max, short  (augmented)" (run_queries short (Rvm.max_version aug));
    }
  in
  (* Steady-state expiry tick: what the resolver does each simulated second —
     note a batch of writes, then expire everything that left the MVCC
     window. The window lag keeps ~the whole history live, the heavy-traffic
     shape: the linear baseline still materializes every live entry per tick,
     while the incremental walk touches only the runs that just expired.
     Both sides are drained to the window floor first so the timed loop
     measures the steady state, not a one-off catch-up. *)
  let window = 50_000L in
  Linear.expire lin ~before:(Int64.sub version window);
  Rvm.expire aug ~before:(Int64.sub version window);
  Bench_util.row "steady-state entries inside the window: %d\n" (Rvm.entry_count aug);
  let expire_tick note expire =
    let rng = Rng.create 11L in
    let v = ref version in
    fun () ->
      for _ = 1 to 100 do
        v := Int64.add !v 1L;
        let k = mk_key (Rng.int rng key_universe) in
        note ~from:k ~until:(k ^ "\x00") !v
      done;
      expire ~before:(Int64.sub !v window)
  in
  let expire_pair =
    {
      before_ns =
        time_ns ~smoke "expiry tick (100 writes + to_list rebuild)"
          (expire_tick (Linear.note_write lin) (fun ~before -> Linear.expire lin ~before));
      after_ns =
        time_ns ~smoke "expiry tick (100 writes + incremental)"
          (expire_tick (Rvm.note_write aug) (fun ~before -> Rvm.expire aug ~before));
    }
  in
  Bench_util.row "speedup: range max wide %.1fx, short %.1fx, expiry tick %.1fx\n"
    (speedup wide_pair) (speedup short_pair) (speedup expire_pair);
  (!mismatches, wide_pair, short_pair, expire_pair)

(* ---------- e2e-shaped allocation floors ----------

   The shape the e2e workloads give the resolver: a preload of
   [preload_keys] sequential point writes, [preload_batch] keys per commit
   version, then transactions of 5 point reads and 5 point writes at uniform
   keys. Keys, versions and picks are built before the measured loops, so
   the word counts are the history's own, and they repeat exactly run to
   run: @bench-smoke gates them against fixed ceilings. The CPU times are
   recorded, not gated. *)

let preload_keys = 100_000
let preload_batch = 500
let alloc_txns = 20_000

type alloc = {
  write_ns : float; (* CPU per preload note_write *)
  txn_ns : float; (* CPU per 5-read, 5-write transaction *)
  preload_words : float; (* minor words per preload note_write *)
  note_words : float; (* minor words per transaction note_write *)
  max_words : float; (* minor words per max_version *)
}

(* The same case run on the previous history: a generic skiplist with
   boxed int64 annotations, whose note_write made six descents. *)
let before =
  {
    write_ns = 4241.4;
    txn_ns = 129099.8;
    preload_words = 185.2;
    note_words = 462.4;
    max_words = 8.0;
  }

(* Ceilings for the word counts; a rise above any of them fails the bench.
   A fresh point write allocates its two entries (30 words here); a write
   over existing entries allocates nothing; max_version only boxes the
   version it returns (3 words). *)
let ceiling = { before with preload_words = 33.0; note_words = 1.0; max_words = 3.0 }

let alloc_case () =
  Bench_util.header "Resolver history allocation (100k-key preload, then 5 reads + 5 writes)";
  let keys = Array.init preload_keys Bench_util.key in
  let ends = Array.map (fun k -> k ^ "\x00") keys in
  let base = preload_keys / preload_batch in
  let versions = Array.init (base + alloc_txns) (fun i -> Int64.of_int (i + 1)) in
  let rng = Rng.create 13L in
  let picks = Array.init (10 * alloc_txns) (fun _ -> Rng.int rng preload_keys) in
  let rvm = Rvm.create ~rng:(Rng.create 1L) () in
  let c0 = Bench_util.cpu () and w0 = Gc.minor_words () in
  for i = 0 to preload_keys - 1 do
    Rvm.note_write rvm ~from:keys.(i) ~until:ends.(i) versions.(i / preload_batch)
  done;
  let w1 = Gc.minor_words () and c1 = Bench_util.cpu () in
  let read_words = ref 0.0 and write_words = ref 0.0 in
  for t = 0 to alloc_txns - 1 do
    let r0 = Gc.minor_words () in
    for j = 10 * t to (10 * t) + 4 do
      let k = picks.(j) in
      ignore (Rvm.max_version rvm ~from:keys.(k) ~until:ends.(k) : int64)
    done;
    let r1 = Gc.minor_words () in
    for j = (10 * t) + 5 to (10 * t) + 9 do
      let k = picks.(j) in
      Rvm.note_write rvm ~from:keys.(k) ~until:ends.(k) versions.(base + t)
    done;
    let r2 = Gc.minor_words () in
    read_words := !read_words +. (r1 -. r0);
    write_words := !write_words +. (r2 -. r1)
  done;
  let c2 = Bench_util.cpu () in
  let ops = float_of_int (5 * alloc_txns) in
  let a =
    {
      write_ns = (c1 -. c0) *. 1e9 /. float_of_int preload_keys;
      txn_ns = (c2 -. c1) *. 1e9 /. float_of_int alloc_txns;
      preload_words = (w1 -. w0) /. float_of_int preload_keys;
      note_words = !write_words /. ops;
      max_words = !read_words /. ops;
    }
  in
  Bench_util.row "%-30s %12s %12s\n" "" "before" "after";
  let line name b x = Bench_util.row "%-30s %12.1f %12.1f\n" name b x in
  line "preload note_write (ns)" before.write_ns a.write_ns;
  line "transaction (ns)" before.txn_ns a.txn_ns;
  line "preload note_write (words)" before.preload_words a.preload_words;
  line "txn note_write (words)" before.note_words a.note_words;
  line "max_version (words)" before.max_words a.max_words;
  a

(* ---------- §5.1 conflict-rate simulation ---------- *)

let universe = 12_000
let clients = 24
let duration = 8.0

let conflict_rate () =
  Bench_util.header "§5.1 conflict rate (paper: 0.73% on production multi-tenant load)";
  let committed = ref 0 and conflicted = ref 0 in
  Bench_util.with_sim ~cpu_scale:2.0
    (Bench_util.shard_evenly Config.default ~universe ~key_of:Bench_util.key)
    (fun cluster ->
      let* () = Bench_util.preload cluster ~universe in
      let stop_at = Engine.now () +. duration in
      let client i =
        let db = Cluster.client cluster ~name:(Printf.sprintf "tenant-%d" i) in
        let rng = Engine.fork_rng () in
        let rec loop () =
          if Engine.now () >= stop_at then Future.return ()
          else
            let* () = Engine.sleep (Rng.float rng 0.01) in
            let tx = Client.begin_tx db in
            let* () =
              Future.catch
                (fun () ->
                  let rec reads n =
                    if n = 0 then Future.return ()
                    else
                      let* _ = Client.get tx (Bench_util.rand_key rng universe) in
                      reads (n - 1)
                  in
                  let* () = reads 5 in
                  for _ = 1 to 2 do
                    Client.set tx (Bench_util.rand_key rng universe)
                      (Bench_util.rand_value rng)
                  done;
                  let* _ = Client.commit tx in
                  incr committed;
                  Future.return ())
                (function
                  | Error.Fdb Error.Not_committed ->
                      incr conflicted;
                      Future.return ()
                  | Error.Fdb _ -> Future.return ()
                  | e -> Future.fail e)
            in
            loop ()
        in
        loop ()
      in
      Future.all_unit (List.init clients client));
  let total = !committed + !conflicted in
  let rate =
    if total = 0 then 0.0
    else 100.0 *. float_of_int !conflicted /. float_of_int total
  in
  Bench_util.row "transactions: %d   conflicts: %d   conflict rate: %.2f%%\n" total
    !conflicted rate;
  (total, !conflicted, rate)

(* ---------- JSON record (BENCH_conflict.json) ---------- *)

let json_pair oc name p =
  Printf.fprintf oc
    "  \"%s\": {\"before_ns\": %.1f, \"after_ns\": %.1f, \"speedup\": %.2f}" name
    p.before_ns p.after_ns (speedup p)

let json_words a =
  Printf.sprintf
    "\"preload_words_per_write\": %.1f, \"words_per_note_write\": %.1f, \
     \"words_per_max_version\": %.1f"
    a.preload_words a.note_words a.max_words

let json_alloc a =
  Printf.sprintf "{\"preload_ns_per_write\": %.1f, \"ns_per_txn\": %.1f, %s}" a.write_ns
    a.txn_ns (json_words a)

let write_json ~smoke ~mismatches ~wide ~short ~expire ~alloc ~rate =
  let oc = open_out "BENCH_conflict.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"conflict\",\n";
  Printf.fprintf oc "  \"mode\": \"%s\",\n" (if smoke then "smoke" else "full");
  Printf.fprintf oc "  \"history_entries\": %d,\n" target_entries;
  Printf.fprintf oc "  \"equivalence_mismatches\": %d,\n" mismatches;
  json_pair oc "range_max_wide" wide;
  Printf.fprintf oc ",\n";
  json_pair oc "range_max_short" short;
  Printf.fprintf oc ",\n";
  json_pair oc "expiry_tick" expire;
  Printf.fprintf oc
    ",\n  \"e2e_shape\": {\"preload_keys\": %d, \"keys_per_version\": %d, \
     \"transactions\": %d,\n    \"method\": \"CPU via Sys.time, minor words via \
     Gc.minor_words around each phase\",\n    \"before\": %s,\n    \"after\": %s,\n    \
     \"word_ceilings\": {%s}}"
    preload_keys preload_batch alloc_txns (json_alloc before) (json_alloc alloc)
    (json_words ceiling);
  (match rate with
  | None -> Printf.fprintf oc ",\n  \"conflict_rate_pct\": null\n"
  | Some (total, conflicts, pct) ->
      Printf.fprintf oc
        ",\n  \"conflict_rate_pct\": %.2f,\n  \"transactions\": %d,\n  \"conflicts\": %d\n"
        pct total conflicts);
  Printf.fprintf oc "}\n";
  close_out oc;
  Bench_util.row "wrote BENCH_conflict.json\n"

let run ?(smoke = false) () =
  let mismatches, wide, short, expire = micro ~smoke () in
  let alloc = alloc_case () in
  let rate = if smoke then None else Some (conflict_rate ()) in
  write_json ~smoke ~mismatches ~wide ~short ~expire ~alloc ~rate;
  if mismatches > 0 then failwith "conflict bench: augmented/linear divergence";
  if
    alloc.preload_words > ceiling.preload_words
    || alloc.note_words > ceiling.note_words
    || alloc.max_words > ceiling.max_words
  then failwith "conflict bench: resolver history words above their ceilings"
