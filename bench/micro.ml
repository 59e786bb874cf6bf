(* Micro-benchmarks (bechamel, real wall-clock):
   - the §2.4.2 Resolver claim: one single-threaded Resolver handles ~280K
     TPS, each transaction checking one read range and noting one write
     range in the version-augmented skiplist;
   - the history's two primitives and future overhead (substrate
     ablations). *)

open Bechamel
open Toolkit
module Rng = Fdb_util.Det_rng

let resolver_txn () =
  let rng = Rng.create 17L in
  let rvm = Fdb_kv.Range_version_map.create ~rng () in
  let version = ref 0L in
  (* Keys precomputed outside the measured loop (the paper measures the
     conflict check, not key formatting). *)
  let keys = Array.init 65_536 (fun i -> Printf.sprintf "%08d" i) in
  let ends = Array.map (fun k -> k ^ "\x00") keys in
  for i = 0 to 5_000 do
    let j = Rng.int rng 65_536 in
    Fdb_kv.Range_version_map.note_write rvm ~from:keys.(j) ~until:ends.(j)
      (Int64.of_int i)
  done;
  version := 5_001L;
  fun () ->
    let r = Rng.int rng 65_536 and w = Rng.int rng 65_536 in
    version := Int64.add !version 1L;
    let v = Fdb_kv.Range_version_map.max_version rvm ~from:keys.(r) ~until:ends.(r) in
    if v <= !version then
      Fdb_kv.Range_version_map.note_write rvm ~from:keys.(w) ~until:ends.(w) !version;
    (* Keep the history bounded like the 5 s MVCC window does. *)
    if Int64.rem !version 50_000L = 0L then
      Fdb_kv.Range_version_map.expire rvm ~before:(Int64.sub !version 50_000L)

(* Point writes at random keys: the resolver's note_write, growing the
   history as it goes. *)
let rvm_note_write () =
  let rng = Rng.create 3L in
  let rvm = Fdb_kv.Range_version_map.create ~rng () in
  let version = ref 0L in
  fun () ->
    let k = Printf.sprintf "%08d" (Rng.int rng 1_000_000) in
    version := Int64.add !version 1L;
    Fdb_kv.Range_version_map.note_write rvm ~from:k ~until:(k ^ "\x00") !version

(* Point conflict checks against a ~100k-entry history. *)
let rvm_max_version () =
  let rng = Rng.create 3L in
  let rvm = Fdb_kv.Range_version_map.create ~rng () in
  for i = 0 to 50_000 do
    let k = Printf.sprintf "%08d" (Rng.int rng 1_000_000) in
    Fdb_kv.Range_version_map.note_write rvm ~from:k ~until:(k ^ "\x00") (Int64.of_int i)
  done;
  fun () ->
    let k = Printf.sprintf "%08d" (Rng.int rng 1_000_000) in
    ignore (Fdb_kv.Range_version_map.max_version rvm ~from:k ~until:(k ^ "\x00") : int64)

let future_chain () =
  fun () ->
    let open Fdb_sim.Future in
    let f, p = make () in
    let g = bind f (fun x -> return (x + 1)) in
    fulfill p 1;
    ignore (peek g : int option)

let tests =
  [
    ("resolver-check+note (one txn)", resolver_txn ());
    ("rvm note_write (point)", rvm_note_write ());
    ("rvm max_version (point, 100k)", rvm_max_version ());
    ("future make/bind/fulfill", future_chain ());
  ]

let run () =
  Bench_util.header "Micro-benchmarks (wall clock; paper: 1 resolver ~ 280K TPS)";
  List.iter
    (fun (name, fn) ->
      let test = Test.make ~name (Staged.stage fn) in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
      let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      (* fdb-lint: allow R2 -- bechamel hands back a raw Hashtbl; wall-clock bench output, not simulation state *)
      Hashtbl.iter
        (fun _key v ->
          match Analyze.OLS.estimates v with
          | Some [ ns ] ->
              let tps = 1e9 /. ns in
              Bench_util.row "%-34s %10.0f ns/op  (%.0fK ops/s)\n" name ns (tps /. 1e3)
          | _ -> Bench_util.row "%-34s (no estimate)\n" name)
        results)
    tests
