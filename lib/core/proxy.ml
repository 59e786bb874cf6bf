open Fdb_sim
open Future.Syntax
module Mutation = Fdb_kv.Mutation

type pending_commit = Message.txn_request * Message.t Future.promise

(* Fate of one batch in the pipeline's in-order completion chain. A batch
   may resolve and push concurrently with its predecessors, but it learns
   whether it is allowed to report/reply only from its predecessor's
   outcome: once any batch fails, every later in-flight batch must fail
   too (its push may or may not survive the coming recovery). *)
type batch_outcome = Batch_ok | Batch_failed

type t = {
  ctx : Context.t;
  proc : Process.t;
  ep : int;
  epoch : Types.epoch;
  sequencer : int;
  resolvers : (Message.key_range * int) list;
  logs : (int * int) list;
  ratekeeper : int option;
  mutable kcv : Types.version;
  mutable dead : bool;
  (* GRV batching + rate limiting. [Queue] gives O(1) enqueue/dequeue and
     an O(1) length, replacing the former list + List.rev/split shuffles. *)
  grv_queue : Message.t Future.promise Queue.t;
  mutable grv_flush_scheduled : bool;
  mutable rate : float; (* transactions/second budget from the Ratekeeper *)
  mutable tokens : float;
  mutable last_refill : float;
  (* commit batching + pipelining *)
  commit_queue : pending_commit Queue.t;
  mutable commit_flush_scheduled : bool;
  mutable commit_inflight : int;
  (* The pipeline's two ordering chains, each pointing at the most recently
     launched batch. [chain_version] resolves once that batch holds its
     (lsn, prev) pair — the next batch asks the Sequencer only then, so
     LSNs are assigned in launch order. [chain_done] resolves once that
     batch has reported and replied (or failed) — the next batch enters
     its completion stage only then, so Seq_reports reach the Sequencer in
     LSN order and t.kcv advances monotonically. *)
  mutable chain_version : unit Future.t;
  mutable chain_done : batch_outcome Future.t;
  (* Reply promises of the GRV and commit batches in flight, each with the
     error [die] answers them with. *)
  mutable in_flight : (Error.t * Message.t Future.promise array) list;
  (* metrics plane handles (no-ops when the registry is disabled) *)
  obs_grv_lat : Fdb_obs.Registry.timer;
  obs_commit_lat : Fdb_obs.Registry.timer;
  obs_resolve_lat : Fdb_obs.Registry.timer;
  obs_logpush_lat : Fdb_obs.Registry.timer;
  obs_grv_served : Fdb_obs.Registry.counter;
  obs_attempts : Fdb_obs.Registry.counter;
  obs_commits : Fdb_obs.Registry.counter;
  obs_conflicts : Fdb_obs.Registry.counter;
  obs_too_old : Fdb_obs.Registry.counter;
  obs_inflight : Fdb_obs.Registry.gauge;
  obs_queue_depth : Fdb_obs.Registry.gauge;
}

let known_committed t = t.kcv
let is_dead t = t.dead

(* A dead proxy releases every waiter at once instead of letting each run
   out its own timeout. Queued requests were never sent anywhere: GRVs and
   commits alike are definitely not served, so [Database_locked]. In-flight
   GRVs get [Database_locked] too; an in-flight commit batch may already be
   on the logs, so its transactions get [Commit_unknown_result]. Batches
   still running reply again later; those replies find the promises
   resolved and are dropped. *)
let die t reason =
  if not t.dead then begin
    t.dead <- true;
    Trace.emit "proxy_die" [ ("epoch", string_of_int t.epoch); ("reason", reason) ];
    let reject err p = ignore (Future.try_fulfill p (Message.Reject err) : bool) in
    Queue.iter (reject Error.Database_locked) t.grv_queue;
    Queue.clear t.grv_queue;
    Queue.iter (fun (_, p) -> reject Error.Database_locked p) t.commit_queue;
    Queue.clear t.commit_queue;
    Fdb_obs.Registry.set_gauge t.obs_queue_depth 0.0;
    List.iter (fun (err, promises) -> Array.iter (reject err) promises) t.in_flight;
    t.in_flight <- []
  end

(* Run [f] with [promises] registered as in flight, so [die] answers them
   with [err]. *)
let holding t err promises f =
  let held = (err, promises) in
  t.in_flight <- held :: t.in_flight;
  Future.protect
    ~finally:(fun () -> t.in_flight <- List.filter (fun h -> h != held) t.in_flight)
    f

(* ---------- GRV path ---------- *)

let refill_tokens t =
  let now = Engine.now () in
  let dt = now -. t.last_refill in
  t.last_refill <- now;
  let cap = max 2000.0 (t.rate *. 0.2) in
  t.tokens <- Float.min cap (t.tokens +. (dt *. t.rate))

(* Pop up to [n] waiters, oldest first. *)
let dequeue_up_to q n =
  let rec go n acc =
    if n = 0 || Queue.is_empty q then List.rev acc
    else go (n - 1) (Queue.pop q :: acc)
  in
  go n []

let rec grv_flush t =
  t.grv_flush_scheduled <- false;
  if Queue.is_empty t.grv_queue then Future.return ()
  else begin
    refill_tokens t;
    let available = int_of_float t.tokens in
    if available <= 0 then begin
      (* Ratekeeper throttling: try again shortly; requests queue up. *)
      let* () = Engine.sleep 0.01 in
      grv_flush t
    end
    else begin
      let batch = dequeue_up_to t.grv_queue available in
      t.tokens <- t.tokens -. float_of_int (List.length batch);
      let* reply =
        holding t Error.Database_locked (Array.of_list batch) (fun () ->
            let* () = Engine.cpu t.proc Params.proxy_per_batch in
            Future.catch
              (fun () ->
                Context.rpc t.ctx ~timeout:2.0 ~from:t.proc t.sequencer Message.Seq_grv)
              (fun _ ->
                (* Our sequencer is unreachable: this generation is over. *)
                die t "sequencer unreachable (grv)";
                Future.return (Message.Reject Error.Database_locked)))
      in
      (match reply with
      | Message.Seq_grv_reply { read_version; grv_epoch } ->
          List.iter
            (fun p ->
              ignore
                (Future.try_fulfill p
                   (Message.Grv_reply { gv_version = read_version; gv_epoch = grv_epoch })
                 : bool))
            batch
      | _ ->
          List.iter
            (fun p ->
              ignore (Future.try_fulfill p (Message.Reject Error.Database_locked) : bool))
            batch);
      if not (Queue.is_empty t.grv_queue) then grv_flush t else Future.return ()
    end
  end

let schedule_grv_flush t =
  if not t.grv_flush_scheduled then begin
    t.grv_flush_scheduled <- true;
    Engine.schedule ~after:Params.grv_batch_interval ~process:t.proc (fun () ->
        Engine.spawn ~process:t.proc "proxy-grv-flush" (fun () -> grv_flush t))
  end

(* ---------- commit path ---------- *)

let stamp_bytes version index =
  Types.version_to_bytes version
  ^ String.init 2 (fun i -> Char.chr ((index lsr (8 * (1 - i))) land 0xff))

let splice template offset stamp =
  let b = Bytes.of_string template in
  Bytes.blit_string stamp 0 b offset (String.length stamp);
  Bytes.to_string b

let materialize_mutations version index (txn : Message.txn_request) =
  List.map
    (fun (m : Message.client_mutation) ->
      match m with
      | Message.Plain p -> p
      | Message.Versionstamped_key { template; offset; value } ->
          Mutation.Set (splice template offset (stamp_bytes version index), value)
      | Message.Versionstamped_value { key; template; offset } ->
          Mutation.Set (key, splice template offset (stamp_bytes version index)))
    txn.Message.tr_mutations

let clip_ranges (lo, hi) ranges =
  List.filter_map
    (fun (f, u) ->
      let f' = if f > lo then f else lo in
      let u' = if u < hi then u else hi in
      if f' < u' then Some (f', u') else None)
    ranges

let txn_bytes (txn : Message.txn_request) =
  List.fold_left
    (fun acc (m : Message.client_mutation) ->
      acc
      +
      match m with
      | Message.Plain p -> Mutation.byte_size p
      | Message.Versionstamped_key { template; value; _ } ->
          String.length template + String.length value
      | Message.Versionstamped_value { key; template; _ } ->
          String.length key + String.length template)
    0 txn.Message.tr_mutations

(* Resolve the batch on every resolver; a resolver that cannot answer
   yields all-conflict (safe: nothing was logged for those transactions). *)
let resolve_batch t lsn prev txns =
  let n = Array.length txns in
  let per_resolver =
    List.map
      (fun (range, ep) ->
        let clipped =
          Array.map
            (fun (txn : Message.txn_request) ->
              ( txn.Message.tr_read_version,
                clip_ranges range txn.Message.tr_reads,
                clip_ranges range txn.Message.tr_writes ))
            txns
        in
        Future.catch
          (fun () ->
            let* reply =
              Context.rpc t.ctx ~timeout:2.0 ~from:t.proc ep
                (Message.Resolve_req
                   { rs_epoch = t.epoch; rs_lsn = lsn; rs_prev = prev; rs_txns = clipped })
            in
            match reply with
            | Message.Resolve_reply verdicts -> Future.return verdicts
            | _ -> Future.return (Array.make n Message.V_conflict))
          (fun _ -> Future.return (Array.make n Message.V_conflict)))
      t.resolvers
  in
  let* all = Future.all per_resolver in
  let combined =
    Array.init n (fun i ->
        List.fold_left
          (fun acc verdicts ->
            match (acc, verdicts.(i)) with
            | Message.V_commit, v -> v
            | acc, Message.V_commit -> acc
            | Message.V_too_old, _ | _, Message.V_too_old -> Message.V_too_old
            | Message.V_conflict, Message.V_conflict -> Message.V_conflict)
          Message.V_commit all)
  in
  Future.return combined

(* Figure 2: every LogServer receives one entry per batch (possibly with an
   empty payload). It holds, in commit order, each mutation that LogServer
   stores, once, tagged with those of its tags that LogServer replicates.
   The LogServers replicating all of a mutation's tags share one tagged
   record: messages are not copied in the simulator, so sharing keeps the
   LogServers' retained payload (and the process heap) small.
   [kcv] is the caller's snapshot of the proxy KCV at entry-build time:
   with overlapping batches it must not be re-read from shared state after
   later batches complete. *)
let build_log_entries shard_map ~n_logs ~replication lsn prev ~kcv committed_mutations =
  let per_log = Array.make n_logs [] in
  List.iter
    (fun (m : Mutation.t) ->
      match Shard_map.tags_for_mutation shard_map m with
      | [] -> ()
      | all ->
          let whole = { Message.tm_tags = all; tm_mutation = m } in
          for li = 0 to n_logs - 1 do
            let mine = Log_server.replicates ~n_logs ~replication li in
            if List.for_all mine all then per_log.(li) <- whole :: per_log.(li)
            else
              match List.filter mine all with
              | [] -> ()
              | tags -> per_log.(li) <- { Message.tm_tags = tags; tm_mutation = m } :: per_log.(li)
          done)
    committed_mutations;
  Array.map
    (fun rev -> { Message.le_lsn = lsn; le_prev = prev; le_kcv = kcv; le_payload = List.rev rev })
    per_log

let entries_for_batch t lsn prev ~kcv committed_mutations =
  build_log_entries t.ctx.Context.shard_map ~n_logs:(List.length t.logs)
    ~replication:t.ctx.Context.config.Config.log_replication lsn prev ~kcv
    committed_mutations

let push_to_logs t entries =
  let pushes =
    List.mapi
      (fun i (_, ep) ->
        let entry = entries.(i) in
        let bytes = Log_server.entry_bytes entry in
        Future.catch
          (fun () ->
            let* reply =
              Context.rpc t.ctx ~timeout:3.0 ~bytes ~from:t.proc ep
                (Message.Log_push { lp_epoch = t.epoch; lp_entry = entry })
            in
            match reply with
            | Message.Log_push_ack _ -> Future.return true
            | _ -> Future.return false)
          (fun _ -> Future.return false))
      t.logs
  in
  let* acks = Future.all pushes in
  Future.return (List.for_all Fun.id acks)

(* Materialize the winners' mutations in batch order (reverse-accumulate,
   one final reverse — the former [acc @ ...] was quadratic in batch
   size). *)
let committed_payload lsn txns verdicts =
  let rev = ref [] in
  Array.iteri
    (fun i verdict ->
      if verdict = Message.V_commit then
        rev := List.rev_append (materialize_mutations lsn i txns.(i)) !rev)
    verdicts;
  List.rev !rev

(* Answer every transaction of a finished batch: the winners with [reply],
   the losers with their verdict, which is definite however the batch
   fared. Losers wait for the batch too, as in FDB: answered at resolution,
   a client could finish while the batch it rode in is still being logged. *)
let reply_batch promises verdicts reply =
  Array.iteri
    (fun i verdict ->
      let answer =
        match verdict with
        | Message.V_commit -> reply
        | Message.V_conflict -> Message.Reject Error.Not_committed
        | Message.V_too_old -> Message.Reject Error.Transaction_too_old
      in
      ignore (Future.try_fulfill promises.(i) answer : bool))
    verdicts

(* ---------- the serial commit path (pipeline depth 1) ----------

   The pre-pipeline implementation, kept verbatim as the baseline the
   commit-pipeline benchmark and the serial-vs-pipelined equivalence tests
   run against: one batch at a time, each awaited end-to-end (version RPC,
   resolve, log push, report) before the next starts. *)

let commit_batch t (batch : pending_commit list) =
  let txns = Array.of_list (List.map fst batch) in
  let promises = Array.of_list (List.map snd batch) in
  holding t Error.Commit_unknown_result promises @@ fun () ->
  let n = Array.length txns in
  let bytes = Array.fold_left (fun acc txn -> acc + txn_bytes txn) 0 txns in
  let* () =
    Engine.cpu t.proc
      (Params.proxy_per_batch
      +. Params.cpu
           ((Params.proxy_per_txn *. float_of_int n)
           +. (Params.proxy_per_byte *. float_of_int bytes)))
  in
  (* Buggify: an unusually slow proxy exercises pipelining and timeouts. *)
  let* () = Engine.sleep (Buggify.delay ~p:0.05 "proxy_slow_commit" /. 20.0) in
  (* One commit version for the whole batch (§2.6 Transaction batching). *)
  let* version_reply =
    Future.catch
      (fun () -> Context.rpc t.ctx ~timeout:2.0 ~from:t.proc t.sequencer Message.Seq_version)
      (fun _ ->
        die t "sequencer unreachable (commit)";
        Future.return (Message.Reject Error.Database_locked))
  in
  match version_reply with
  | Message.Seq_version_reply { version = lsn; prev } ->
      let* verdicts = resolve_batch t lsn prev txns in
      let committed_mutations = committed_payload lsn txns verdicts in
      let entries = entries_for_batch t lsn prev ~kcv:t.kcv committed_mutations in
      let* all_acked = push_to_logs t entries in
      if not all_acked then begin
        (* Durability unknown: recovery will decide. Fail the epoch. *)
        reply_batch promises verdicts (Message.Reject Error.Commit_unknown_result);
        die t "log push failed";
        Future.return ()
      end
      else begin
        if lsn > t.kcv then t.kcv <- lsn;
        (* Report the committed version to the Sequencer and wait for the
           acknowledgment BEFORE replying to clients (§2.4.1): a client
           holding our reply may immediately obtain a read version from any
           proxy, and that version must cover this commit. A fire-and-forget
           report races that GRV and yields stale snapshots (found by the
           read-your-writes property test). *)
        let* reported =
          Future.catch
            (fun () ->
              let* _ =
                Context.rpc t.ctx ~timeout:2.0 ~from:t.proc t.sequencer
                  (Message.Seq_report { committed = lsn })
              in
              Future.return true)
            (fun _ -> Future.return false)
        in
        if not reported then begin
          (* Durable but unannounced: only a new generation restores the
             GRV guarantee; clients must treat the outcome as unknown. *)
          reply_batch promises verdicts (Message.Reject Error.Commit_unknown_result);
          die t "sequencer unreachable (report)";
          Future.return ()
        end
        else begin
          Trace.emit "proxy_commit_done"
            [ ("lsn", Int64.to_string lsn); ("kcv", Int64.to_string t.kcv) ];
          reply_batch promises verdicts (Message.Commit_reply lsn);
          Future.return ()
        end
      end
  | _ ->
      (* No version, nothing logged: definitely not committed. *)
      Array.iter
        (fun p -> ignore (Future.try_fulfill p (Message.Reject Error.Database_locked) : bool))
        promises;
      Future.return ()

let rec commit_flush_serial t =
  t.commit_flush_scheduled <- false;
  if Queue.is_empty t.commit_queue then Future.return ()
  else if t.commit_inflight >= 1 then
    (* A racing flush (scheduled while the running one awaited its batch)
       must not start a second concurrent batch: depth 1 means one batch in
       flight, full stop. The running loop drains the queue. *)
    Future.return ()
  else begin
    let batch =
      dequeue_up_to t.commit_queue t.ctx.Context.config.Config.max_commit_batch
    in
    Fdb_obs.Registry.set_gauge t.obs_queue_depth
      (float_of_int (Queue.length t.commit_queue));
    t.commit_inflight <- 1;
    Fdb_obs.Registry.set_gauge t.obs_inflight 1.0;
    let* () = commit_batch t batch in
    t.commit_inflight <- 0;
    Fdb_obs.Registry.set_gauge t.obs_inflight 0.0;
    if not (Queue.is_empty t.commit_queue) then commit_flush_serial t
    else Future.return ()
  end

(* ---------- the pipelined commit path (§2.4.1 LSN chaining) ----------

   Up to [Config.proxy_commit_pipeline_depth] batches run concurrently.
   Each fetches its own (lsn, prev) pair — gated on the previous batch's
   fetch, so LSNs follow launch order — then resolves and pushes without
   waiting for its predecessor; the Resolver's and LogServer's parked-batch
   machinery re-orders out-of-order arrivals along the prev chain. The
   completion stage is serialized: a batch reports to the Sequencer and
   replies to its clients only after its predecessor resolved its fate, so
   reports reach the Sequencer in LSN order, the KCV advances monotonically
   and a failed batch fails every later in-flight batch. *)

let commit_batch_pipelined t ~version_gate ~version_ready ~prev_done ~done_p
    (batch : pending_commit list) =
  let txns = Array.of_list (List.map fst batch) in
  let promises = Array.of_list (List.map snd batch) in
  holding t Error.Commit_unknown_result promises @@ fun () ->
  let n = Array.length txns in
  let bytes = Array.fold_left (fun acc txn -> acc + txn_bytes txn) 0 txns in
  let release_version () = ignore (Future.try_fulfill version_ready () : bool) in
  let finish outcome =
    ignore (Future.try_fulfill done_p outcome : bool);
    Future.return ()
  in
  let reject_all err =
    Array.iter
      (fun p -> ignore (Future.try_fulfill p (Message.Reject err) : bool))
      promises
  in
  let* () =
    Engine.cpu t.proc
      (Params.proxy_per_batch
      +. Params.cpu
           ((Params.proxy_per_txn *. float_of_int n)
           +. (Params.proxy_per_byte *. float_of_int bytes)))
  in
  (* Version gate: ask the Sequencer only after the previous batch holds
     its version, so this proxy's LSNs are assigned in launch order. The
     fetch is the only serialized stage before completion — resolution and
     pushes below overlap freely across batches. *)
  let* () = version_gate in
  if t.dead then begin
    release_version ();
    (* Never assigned a version, nothing logged: definitely not committed. *)
    reject_all Error.Database_locked;
    finish Batch_failed
  end
  else
    let* version_reply =
      Future.catch
        (fun () ->
          Context.rpc t.ctx ~timeout:2.0 ~from:t.proc t.sequencer Message.Seq_version)
        (fun _ ->
          die t "sequencer unreachable (commit)";
          Future.return (Message.Reject Error.Database_locked))
    in
    release_version ();
    match version_reply with
    | Message.Seq_version_reply { version = lsn; prev } ->
        (* Buggify: stall THIS batch after it already holds its LSN — later
           batches fetch theirs and race ahead, so their resolves and
           pushes arrive out of chain order and exercise the parking lots
           at the Resolver and the LogServers. *)
        let* () = Engine.sleep (Buggify.delay ~p:0.05 "proxy_slow_commit" /. 20.0) in
        let t_resolve = Engine.now () in
        let* verdicts = resolve_batch t lsn prev txns in
        Fdb_obs.Registry.observe t.obs_resolve_lat (Engine.now () -. t_resolve);
        let committed_mutations = committed_payload lsn txns verdicts in
        (* Capture the KCV once, here: stamping [t.kcv] read any later
           would let a concurrently-running batch observe a KCV its own
           chain position has not reached. *)
        let entries = entries_for_batch t lsn prev ~kcv:t.kcv committed_mutations in
        let t_push = Engine.now () in
        let* all_acked = push_to_logs t entries in
        Fdb_obs.Registry.observe t.obs_logpush_lat (Engine.now () -. t_push);
        (* In-order completion stage: wait for the predecessor's fate. *)
        let* prev_outcome = prev_done in
        if prev_outcome = Batch_failed || t.dead then begin
          (* An earlier LSN failed the epoch. Our push may or may not
             survive the coming recovery: never report or reply success
             past a failed LSN. *)
          reply_batch promises verdicts (Message.Reject Error.Commit_unknown_result);
          finish Batch_failed
        end
        else if not all_acked then begin
          (* Durability unknown: recovery will decide. Fail the epoch. *)
          reply_batch promises verdicts (Message.Reject Error.Commit_unknown_result);
          die t "log push failed";
          finish Batch_failed
        end
        else begin
          if lsn > t.kcv then t.kcv <- lsn;
          (* Report and await the acknowledgment BEFORE replying (§2.4.1):
             a client holding our reply may immediately obtain a read
             version from any proxy, and that version must cover this
             commit. The chain guarantees reports arrive in LSN order, so
             Sequencer.committed only ever exposes durable prefixes. *)
          let* reported =
            Future.catch
              (fun () ->
                let* _ =
                  Context.rpc t.ctx ~timeout:2.0 ~from:t.proc t.sequencer
                    (Message.Seq_report { committed = lsn })
                in
                Future.return true)
              (fun _ -> Future.return false)
          in
          if not reported then begin
            (* Durable but unannounced: only a new generation restores the
               GRV guarantee; clients must treat the outcome as unknown. *)
            reply_batch promises verdicts (Message.Reject Error.Commit_unknown_result);
            die t "sequencer unreachable (report)";
            finish Batch_failed
          end
          else begin
            Trace.emit "proxy_commit_done"
              [ ("lsn", Int64.to_string lsn); ("kcv", Int64.to_string t.kcv) ];
            reply_batch promises verdicts (Message.Commit_reply lsn);
            finish Batch_ok
          end
        end
    | _ ->
        (* No version, nothing logged: definitely not committed. This batch
           is a no-op in the chain — its fate is its predecessor's. *)
        reject_all Error.Database_locked;
        if t.dead then finish Batch_failed
        else
          let* prev_outcome = prev_done in
          finish prev_outcome

let rec commit_flush_pipelined t =
  t.commit_flush_scheduled <- false;
  if Queue.is_empty t.commit_queue then Future.return ()
  else if t.dead then begin
    (* Queued requests were never assigned a version: definitely not
       committed, so a retryable reject is safe. *)
    Queue.iter
      (fun (_, p) ->
        ignore (Future.try_fulfill p (Message.Reject Error.Database_locked) : bool))
      t.commit_queue;
    Queue.clear t.commit_queue;
    Fdb_obs.Registry.set_gauge t.obs_queue_depth 0.0;
    Future.return ()
  end
  else if
    t.commit_inflight >= max 1 t.ctx.Context.config.Config.proxy_commit_pipeline_depth
  then
    (* Pipeline full: a completing batch re-runs the flush. *)
    Future.return ()
  else begin
    let batch =
      dequeue_up_to t.commit_queue t.ctx.Context.config.Config.max_commit_batch
    in
    Fdb_obs.Registry.set_gauge t.obs_queue_depth
      (float_of_int (Queue.length t.commit_queue));
    let version_gate = t.chain_version and prev_done = t.chain_done in
    let version_fut, version_ready = Future.make ~label:"proxy.chain_version" () in
    let done_fut, done_p = Future.make ~label:"proxy.chain_done" () in
    t.chain_version <- version_fut;
    t.chain_done <- done_fut;
    t.commit_inflight <- t.commit_inflight + 1;
    Fdb_obs.Registry.set_gauge t.obs_inflight (float_of_int t.commit_inflight);
    Engine.spawn ~process:t.proc "proxy-commit-batch" (fun () ->
        let* () =
          commit_batch_pipelined t ~version_gate ~version_ready ~prev_done ~done_p
            batch
        in
        t.commit_inflight <- t.commit_inflight - 1;
        Fdb_obs.Registry.set_gauge t.obs_inflight (float_of_int t.commit_inflight);
        if Queue.is_empty t.commit_queue then Future.return ()
        else commit_flush_pipelined t);
    (* Keep launching while the depth and the queue allow. *)
    if Queue.is_empty t.commit_queue then Future.return ()
    else commit_flush_pipelined t
  end

let commit_flush t =
  if t.ctx.Context.config.Config.proxy_commit_pipeline_depth <= 1 then
    commit_flush_serial t
  else commit_flush_pipelined t

let schedule_commit_flush t ~now =
  if not t.commit_flush_scheduled then begin
    t.commit_flush_scheduled <- true;
    let delay = if now then 0.0 else Params.commit_batch_interval in
    Engine.schedule ~after:delay ~process:t.proc (fun () ->
        Engine.spawn ~process:t.proc "proxy-commit-flush" (fun () -> commit_flush t))
  end

(* ---------- rate polling ---------- *)

let rate_loop t =
  match t.ratekeeper with
  | None -> Future.return ()
  | Some rk ->
      let rec loop () =
        if t.dead then Future.return ()
        else
          let* () = Engine.sleep Params.ratekeeper_interval in
          let* () =
            Future.catch
              (fun () ->
                let* reply =
                  Context.rpc t.ctx ~timeout:1.0 ~from:t.proc rk Message.Rk_get_rate
                in
                (match reply with
                | Message.Rk_rate { tps } ->
                    (* The budget is cluster-wide; each proxy admits its
                       share (FDB hands out per-proxy budgets the same way). *)
                    t.rate <- tps /. float_of_int (max 1 t.ctx.Context.config.Config.proxies)
                | _ -> ());
                Future.return ())
              (fun _ -> Future.return ())
          in
          loop ()
      in
      loop ()

(* ---------- RPC surface ---------- *)

let handle t (msg : Message.t) : Message.t Future.t =
  if t.dead then Future.return (Message.Reject Error.Wrong_epoch)
  else
    match msg with
    | Message.Seq_ping -> Future.return Message.Ok_reply
    | Message.Proxy_retire { pr_epoch } ->
        if pr_epoch >= t.epoch then die t "retired by the cluster controller";
        Future.return Message.Ok_reply
    | Message.Grv_req ->
        let fut, promise = Future.make ~label:"proxy.grv_reply" () in
        Queue.push promise t.grv_queue;
        schedule_grv_flush t;
        let t0 = Engine.now () in
        Future.map fut (fun reply ->
            (match reply with
            | Message.Grv_reply _ ->
                Fdb_obs.Registry.incr t.obs_grv_served;
                Fdb_obs.Registry.observe t.obs_grv_lat (Engine.now () -. t0)
            | _ -> ());
            reply)
    | Message.Commit_req txn ->
        Fdb_obs.Registry.incr t.obs_attempts;
        let fut, promise = Future.make ~label:"proxy.commit_reply" () in
        Queue.push (txn, promise) t.commit_queue;
        Fdb_obs.Registry.set_gauge t.obs_queue_depth
          (float_of_int (Queue.length t.commit_queue));
        schedule_commit_flush t
          ~now:
            (Queue.length t.commit_queue
            >= t.ctx.Context.config.Config.max_commit_batch);
        let t0 = Engine.now () in
        Future.map fut (fun reply ->
            (match reply with
            | Message.Commit_reply _ ->
                Fdb_obs.Registry.incr t.obs_commits;
                Fdb_obs.Registry.observe t.obs_commit_lat (Engine.now () -. t0)
            | Message.Reject Error.Not_committed -> Fdb_obs.Registry.incr t.obs_conflicts
            | Message.Reject Error.Transaction_too_old -> Fdb_obs.Registry.incr t.obs_too_old
            | _ -> ());
            reply)
    | _ -> Future.return (Message.Reject (Error.Internal "proxy: unexpected message"))

let create ctx proc ~epoch ~sequencer ~resolvers ~logs ~ratekeeper ~recovery_version =
  let ep = Network.fresh_endpoint ctx.Context.net in
  let reg = ctx.Context.metrics in
  let pid = proc.Process.pid in
  let t =
    {
      ctx;
      proc;
      ep;
      epoch;
      sequencer;
      resolvers;
      logs;
      ratekeeper;
      kcv = recovery_version;
      dead = false;
      grv_queue = Queue.create ();
      grv_flush_scheduled = false;
      rate = 1e5;
      tokens = 2000.0;
      last_refill = Engine.now ();
      commit_queue = Queue.create ();
      commit_flush_scheduled = false;
      commit_inflight = 0;
      chain_version = Future.return ();
      chain_done = Future.return Batch_ok;
      in_flight = [];
      obs_grv_lat = Fdb_obs.Registry.histogram reg ~role:Fdb_obs.Registry.Proxy ~process:pid "grv_latency";
      obs_commit_lat = Fdb_obs.Registry.histogram reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_latency";
      obs_resolve_lat = Fdb_obs.Registry.histogram reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_resolve_latency";
      obs_logpush_lat = Fdb_obs.Registry.histogram reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_logpush_latency";
      obs_grv_served = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Proxy ~process:pid "grv_served";
      obs_attempts = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_attempts";
      obs_commits = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commits";
      obs_conflicts = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Proxy ~process:pid "conflicts";
      obs_too_old = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Proxy ~process:pid "too_old";
      obs_inflight = Fdb_obs.Registry.gauge reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_inflight_batches";
      obs_queue_depth = Fdb_obs.Registry.gauge reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_queue_depth";
    }
  in
  Network.register ctx.Context.net ep proc (handle t);
  Engine.spawn ~process:proc "proxy-rate" (fun () -> rate_loop t);
  (t, ep)
