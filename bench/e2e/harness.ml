(* The measurement harness: boots a full cluster inside [Engine.run],
   preloads the key universe, drives a workload through the public
   [Client] API in an open loop (latency) and a closed loop (throughput),
   and turns what it saw into metrics. Every client call is timed from
   outside, on the virtual clock; the simulator's own cost is measured in
   process CPU time. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng

(* fdb-lint: allow R1 -- bounds the benchmark's own running time *)
let wall () = Unix.gettimeofday ()

(* Process CPU time, user plus system. The simulator's own cost is measured
   with it rather than with the wall clock, which on a shared machine also
   counts other tenants' work: on a 2-core x86-64 VM, one seed's wall time
   varied by 16% from run to run where its CPU time varied by 2%. *)
(* fdb-lint: allow R1 -- the simulator's own cost is one of the metrics *)
let cpu () = Sys.time ()

exception Over_budget

(* The wall-clock time by which the process must be done, and the most
   heap it may use. A run past either has stopped making progress (a
   recovery that never ends, say) and is aborted instead of growing its
   trace without bound. The check runs in the benchmark's own actors; the
   task it schedules raises out of [Engine.run], and exists only once the
   budget is already spent. *)
let deadline = ref Float.infinity
let max_heap_words = 3 * 1024 * 1024 * 1024 / (Sys.word_size / 8)
let checks = ref 0

let within_budget () =
  incr checks;
  if
    wall () > !deadline
    || (!checks land 255 = 0 && (Gc.quick_stat ()).Gc.heap_words > max_heap_words)
  then Engine.schedule (fun () -> raise Over_budget)

(* The 1/20 scale EXPERIMENTS.md uses for Figures 8 and 9. *)
let cpu_scale = 20.0

(* 100 k keys of 16 bytes; values of 8-100 bytes. *)
let universe = 100_000
let key i = Printf.sprintf "bench/%010d" i
let random_value rng = Rng.alphanum rng (8 + Rng.int rng 93)

(* A transaction gives up after this many attempts. *)
let max_attempts = 10

type txn = {
  id : int;
  record : bool;  (* inside a measurement window: its samples count *)
  due : float;
  mutable attempts : int;
  mutable reads : (string * string) list;  (* this attempt's conflict ranges *)
  mutable writes : string list;
  mutable bytes : int;
}

type body = txn -> Client.tx -> unit Future.t

type stats = {
  txn_lat : Samples.t;
  grv : Samples.t;
  read : Samples.t;  (* every storage read call: get, or range_all *)
  range : Samples.t;
  commit : Samples.t;  (* commit calls of write transactions *)
  mutable issued : int;  (* every transaction of every phase *)
  mutable committed : int;
  mutable failed : int;
  mutable rec_offered : int;  (* measurement windows only, from here on *)
  mutable rec_committed : int;
  mutable rec_failed : int;
  mutable rec_attempts : int;
  mutable commit_calls : int;
  mutable conflicts : int;
  mutable unknown : int;  (* Commit_unknown_result outcomes, every phase *)
  mutable user_bytes : int;
}

let fresh_stats () =
  {
    txn_lat = Samples.create ();
    grv = Samples.create ();
    read = Samples.create ();
    range = Samples.create ();
    commit = Samples.create ();
    issued = 0;
    committed = 0;
    failed = 0;
    rec_offered = 0;
    rec_committed = 0;
    rec_failed = 0;
    rec_attempts = 0;
    commit_calls = 0;
    conflicts = 0;
    unknown = 0;
    user_bytes = 0;
  }

(* What the traced run adds: spans, layer samplers, and the conflict ranges
   of committed write transactions for the resolver replay. *)
type tracing = {
  spans : Spans.t;
  layers : Layers.t;
  mutable conflict_log : ((string * string) list * string list) list;
}

type h = {
  cluster : Cluster.t;
  st : stats;
  tracing : tracing option;
  mutable next_id : int;
}

(* ---------- timed calls into the client ---------- *)

(* Time one call (whatever its outcome) into [sinks] and, when traced, as a
   child span of the transaction. *)
let timed h txn ~name sinks fut =
  if txn.record then begin
    let t0 = Engine.now () in
    let f = fut () in
    Future.on_resolve f (fun _ ->
        let t1 = Engine.now () in
        List.iter (fun s -> Samples.add s (t1 -. t0)) sinks;
        Option.iter (fun tr -> Spans.add tr.spans ~name ~txn:txn.id ~t0 ~t1 ()) h.tracing);
    f
  end
  else fut ()

let grv h txn tx = timed h txn ~name:"grv" [ h.st.grv ] (fun () -> Client.get_read_version tx)

let get h txn tx k =
  txn.reads <- (k, k ^ "\000") :: txn.reads;
  timed h txn ~name:"get" [ h.st.read ] (fun () -> Client.get tx k)

let range h txn tx ~from ~until ~limit =
  txn.reads <- (from, until) :: txn.reads;
  let f =
    timed h txn ~name:"range" [ h.st.range; h.st.read ] (fun () ->
        Client.range_all tx (Range_query.keys ~limit ~from ~until ()))
  in
  (match h.tracing with
  | Some tr when txn.record -> Future.on_resolve f (fun _ -> Layers.sample_fanout tr.layers)
  | _ -> ());
  f

let set txn tx k v =
  txn.writes <- k :: txn.writes;
  txn.bytes <- txn.bytes + String.length k + String.length v;
  Client.set tx k v

let commit h txn tx =
  let f = timed h txn ~name:"commit" [ h.st.commit ] (fun () -> Client.commit tx) in
  Future.on_resolve f (function
    | Ok _ -> if txn.record then h.st.commit_calls <- h.st.commit_calls + 1
    | Error e -> (
        if txn.record then h.st.commit_calls <- h.st.commit_calls + 1;
        match Client.Error.classify e with
        | Some Client.Error.Not_committed -> if txn.record then h.st.conflicts <- h.st.conflicts + 1
        | Some Client.Error.Commit_unknown_result -> h.st.unknown <- h.st.unknown + 1
        | _ -> ()));
  f

(* ---------- one transaction, retries included ---------- *)

let finish h txn ok =
  within_budget ();
  let st = h.st in
  if ok then st.committed <- st.committed + 1 else st.failed <- st.failed + 1;
  if txn.record then begin
    let t1 = Engine.now () in
    Samples.add st.txn_lat (t1 -. txn.due);
    st.rec_attempts <- st.rec_attempts + txn.attempts;
    if ok then begin
      st.rec_committed <- st.rec_committed + 1;
      st.user_bytes <- st.user_bytes + txn.bytes
    end
    else st.rec_failed <- st.rec_failed + 1;
    Option.iter
      (fun tr ->
        Spans.add tr.spans ~name:"txn" ~txn:txn.id ~t0:txn.due ~t1
          ~args:
            [
              ("attempts", Json.Num (float_of_int txn.attempts));
              ("outcome", Json.Str (if ok then "committed" else "failed"));
            ]
          ();
        if ok && txn.writes <> [] then
          tr.conflict_log <- (txn.reads, txn.writes) :: tr.conflict_log;
        Layers.sample tr.layers)
      h.tracing
  end

let execute h ~record ~due db (body : body) =
  let txn =
    { id = h.next_id; record; due; attempts = 0; reads = []; writes = []; bytes = 0 }
  in
  h.next_id <- h.next_id + 1;
  h.st.issued <- h.st.issued + 1;
  Future.catch
    (fun () ->
      let* () =
        Client.run db ~max_attempts (fun tx ->
            txn.attempts <- txn.attempts + 1;
            txn.reads <- [];
            txn.writes <- [];
            txn.bytes <- 0;
            body txn tx)
      in
      finish h txn true;
      Future.return true)
    (fun e ->
      match Client.Error.classify e with
      | Some _ ->
          finish h txn false;
          Future.return false
      | None -> Future.fail e)

(* ---------- load generators ---------- *)

type open_result = {
  phase_cpu_s : float;  (* from the window's first arrival to the last completion *)
  alloc_words : float;  (* minor-heap words allocated during the window *)
  gen_late_max : float;
}

(* Poisson arrivals at [rate]; each transaction is timed from the moment
   it was due. [draw] picks one transaction's inputs from the generator's
   stream, so a retry replays the same keys. Samples count from [warmup]
   on, when [on_window] runs; the phase ends when the last transaction
   offered before [warmup + measure] has finished. *)
let open_loop h ~rate ~warmup ~measure ~on_window ~(draw : Rng.t -> body) =
  let rng = Engine.fork_rng () in
  let dbs =
    Array.init 16 (fun i -> Cluster.client h.cluster ~name:(Printf.sprintf "open-%d" i))
  in
  let measure_from = Engine.now () +. warmup in
  let stop_at = measure_from +. measure in
  let outstanding = ref 0 in
  let generating = ref true in
  let drained, drained_p = Future.make () in
  let settle () = if (not !generating) && !outstanding = 0 then Future.fulfill drained_p () in
  let window_open = ref false in
  let phase_cpu0 = ref 0.0 in
  let alloc0 = ref 0.0 in
  let late = ref 0.0 in
  let rec arrive due =
    if due >= stop_at then begin
      generating := false;
      settle ();
      Future.return ()
    end
    else
      let* () = Engine.sleep_until due in
      within_budget ();
      let record = due >= measure_from in
      if record then begin
        late := Float.max !late (Engine.now () -. due);
        if not !window_open then begin
          window_open := true;
          on_window ();
          alloc0 := Gc.minor_words ();
          phase_cpu0 := cpu ()
        end;
        h.st.rec_offered <- h.st.rec_offered + 1
      end;
      let body = draw rng in
      let db = dbs.(Rng.int rng (Array.length dbs)) in
      incr outstanding;
      (* An exception the client does not classify is a bug: [spawn]
         traces it, the transaction stays out of [committed] and [failed],
         and the run reports the gap. *)
      Engine.spawn "bench-txn" (fun () ->
          Future.protect
            ~finally:(fun () ->
              decr outstanding;
              settle ())
            (fun () ->
              let* (_ : bool) = execute h ~record ~due db body in
              Future.return ()));
      arrive (due +. Rng.exponential rng (1.0 /. rate))
  in
  let* () = arrive (Engine.now () +. Rng.exponential rng (1.0 /. rate)) in
  let* () = drained in
  Future.return
    (if not !window_open then { phase_cpu_s = 0.0; alloc_words = 0.0; gen_late_max = 0.0 }
     else
       {
         phase_cpu_s = cpu () -. !phase_cpu0;
         alloc_words = Gc.minor_words () -. !alloc0;
         gen_late_max = !late;
       })

(* [clients] actors each run transactions back to back; the result is the
   committed transactions per simulated second over [measure]. *)
let closed_loop h ~clients ~warmup ~measure ~(draw : Rng.t -> body) =
  let stop = ref false in
  let measuring = ref false in
  let committed = ref 0 in
  let runner i =
    let db = Cluster.client h.cluster ~name:(Printf.sprintf "closed-%d" i) in
    let rng = Engine.fork_rng () in
    let rec loop () =
      if !stop then Future.return ()
      else
        let body = draw rng in
        let* ok = execute h ~record:false ~due:(Engine.now ()) db body in
        if ok && !measuring then incr committed;
        loop ()
    in
    loop ()
  in
  let all = Future.all_unit (List.init clients runner) in
  let* () = Engine.sleep warmup in
  measuring := true;
  let t0 = Engine.now () in
  let* () = Engine.sleep measure in
  measuring := false;
  let elapsed = Engine.now () -. t0 in
  stop := true;
  let* () = all in
  Future.return (float_of_int !committed /. elapsed)

(* ---------- set-up ---------- *)

let config ~shards_per_storage =
  let c = { Config.default with Config.shards_per_storage } in
  let shards = Config.storage_count c * shards_per_storage in
  { c with Config.shard_boundaries = List.init (shards - 1) (fun i -> key ((i + 1) * universe / shards)) }

(* Bulk preload with CPU costs suspended (the paper pre-populates out of
   band), then let the pipeline drain. *)
let preload cluster ~value_of =
  Params.cpu_scale := 0.0;
  let db = Cluster.client cluster ~name:"preload" in
  let rng = Engine.fork_rng () in
  let rec load i =
    if i >= universe then Future.return ()
    else begin
      let hi = min universe (i + 500) in
      let* () =
        Client.run db (fun tx ->
            for j = i to hi - 1 do
              Client.set tx (key j) (value_of j rng)
            done;
            Future.return ())
      in
      load hi
    end
  in
  let* () = load 0 in
  Params.cpu_scale := cpu_scale;
  Engine.sleep 1.0

let boot ~shards_per_storage ~value_of =
  Params.cpu_scale := cpu_scale;
  let cluster = Cluster.create ~config:(config ~shards_per_storage) () in
  let* () = Cluster.wait_ready ~timeout:120.0 cluster in
  let* () = preload cluster ~value_of in
  Future.return cluster

(* Reads every key in [\[0, universe)] in read-only transactions of 5,000
   rows each and folds [f] over the rows. *)
let scan_universe cluster f init =
  let db = Cluster.client cluster ~name:"bench-check" in
  let rec go i acc =
    if i >= universe then Future.return acc
    else
      let hi = min universe (i + 5000) in
      let* rows =
        Client.run db (fun tx ->
            Client.range_all tx (Range_query.keys ~limit:(hi - i) ~from:(key i) ~until:(key hi) ()))
      in
      go hi (List.fold_left f acc rows)
  in
  go 0 init

(* Run [f] in a fresh simulation, restoring the global CPU-scale knob
   that [boot] sets. *)
let simulate ~seed f =
  Fun.protect
    ~finally:(fun () -> Params.cpu_scale := 1.0)
    (fun () -> Engine.run ~seed ~max_time:1e6 f)
