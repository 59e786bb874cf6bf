open Fdb_sim
open Future.Syntax
module Mutation = Fdb_kv.Mutation

(* What a client's request is answered with: a value or a definite error. *)
type 'r answer = ('r, Error.t) result Future.promise

type pending_commit = Message.txn_request * Types.version answer

(* Answer promises held by a batch in flight, with the error [die] answers
   them with. *)
type held = Held : Error.t * 'r answer array -> held

(* Fate of one batch in the pipeline's in-order completion chain. A batch
   may resolve and push concurrently with its predecessors, but it learns
   whether it is allowed to report/reply only from its predecessor's
   outcome: once any batch fails, every later in-flight batch must fail
   too (its push may or may not survive the coming recovery). *)
type batch_outcome = Batch_ok | Batch_failed

type t = {
  ctx : Context.t;
  proc : Process.t;
  epoch : Types.epoch;
  sequencer : int;
  resolvers : (Message.key_range * int) list;
  logs : (int * int) list;
  ratekeeper : int option;
  mutable kcv : Types.version;
  mutable dead : bool;
  (* GRV batching + rate limiting. [Queue] gives O(1) enqueue/dequeue and
     an O(1) length, replacing the former list + List.rev/split shuffles. *)
  grv_queue : Message.read_version answer Queue.t;
  mutable grv_flush_running : bool; (* one Seq_grv batch in flight at most *)
  mutable rate : float; (* transactions/second budget from the Ratekeeper *)
  mutable tokens : float;
  mutable last_refill : float;
  (* commit batching + pipelining *)
  commit_queue : pending_commit Queue.t;
  mutable commit_flush_scheduled : bool; (* a flush is pending, or the serial loop runs *)
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
  (* The GRV and commit batches in flight. *)
  mutable in_flight : held list;
  watch : unit Failure_watch.t; (* the sequencer's long-poll on us *)
  (* metrics plane handles (no-ops when the registry is disabled) *)
  obs_grv_lat : Fdb_obs.Registry.timer;
  obs_commit_lat : Fdb_obs.Registry.timer;
  obs_resolve_lat : Fdb_obs.Registry.timer;
  obs_logpush_lat : Fdb_obs.Registry.timer;
  obs_grv_batch : Fdb_obs.Registry.timer;
  obs_commit_batch : Fdb_obs.Registry.timer;
  obs_grv_served : Fdb_obs.Registry.counter;
  obs_attempts : Fdb_obs.Registry.counter;
  obs_commits : Fdb_obs.Registry.counter;
  obs_conflicts : Fdb_obs.Registry.counter;
  obs_too_old : Fdb_obs.Registry.counter;
  obs_inflight : Fdb_obs.Registry.gauge;
  obs_queue_depth : Fdb_obs.Registry.gauge;
}

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
    let reject err p = ignore (Future.try_fulfill p (Error err) : bool) in
    Queue.iter (reject Error.Database_locked) t.grv_queue;
    Queue.clear t.grv_queue;
    Queue.iter (fun (_, p) -> reject Error.Database_locked p) t.commit_queue;
    Queue.clear t.commit_queue;
    Fdb_obs.Registry.set_gauge t.obs_queue_depth 0.0;
    List.iter (function Held (err, promises) -> Array.iter (reject err) promises) t.in_flight;
    t.in_flight <- [];
    Failure_watch.fail t.watch
  end

(* Run [f] with [promises] registered as in flight, so [die] answers them
   with [err]. *)
let holding t err promises f =
  let held = Held (err, promises) in
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

(* Group commit for read versions: at most one Seq_grv batch is in flight.
   The loop owns [grv_flush_running] from its start until it finds the queue
   empty; the requests that arrive while a batch awaits the Sequencer form
   the next batch, sent as soon as that reply is back. *)
let rec grv_flush t =
  if Queue.is_empty t.grv_queue then begin
    t.grv_flush_running <- false;
    Future.return ()
  end
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
      let n = List.length batch in
      t.tokens <- t.tokens -. float_of_int n;
      Fdb_obs.Registry.observe t.obs_grv_batch (float_of_int n);
      let* answer =
        holding t Error.Database_locked (Array.of_list batch) (fun () ->
            let* () = Engine.cpu t.proc Params.proxy_per_batch in
            Future.catch
              (fun () ->
                Future.map
                  (Context.rpc t.ctx ~timeout:2.0 ~from:t.proc t.sequencer Message.Seq_grv)
                  Result.ok)
              (function
                | Error.Fdb e -> Future.return (Error e)
                | _ ->
                    (* Our sequencer is unreachable: this generation is over. *)
                    die t "sequencer unreachable (grv)";
                    Future.return (Error Error.Database_locked)))
      in
      List.iter (fun p -> ignore (Future.try_fulfill p answer : bool)) batch;
      grv_flush t
    end
  end

(* An arrival at an idle proxy starts the loop at once. *)
let start_grv_flush t =
  if not t.grv_flush_running then begin
    t.grv_flush_running <- true;
    Engine.spawn ~process:t.proc "proxy-grv-flush" (fun () -> grv_flush t)
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
            Context.rpc t.ctx ~timeout:Resolver.resolve_timeout ~from:t.proc ep
              (Message.Resolve_req
                 { rs_epoch = t.epoch; rs_lsn = lsn; rs_prev = prev; rs_txns = clipped }))
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
            let+ _durable =
              Context.rpc t.ctx ~timeout:Log_server.push_timeout ~bytes ~from:t.proc ep
                (Message.Log_push { lp_epoch = t.epoch; lp_entry = entry })
            in
            true)
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
        | Message.V_conflict -> Error Error.Not_committed
        | Message.V_too_old -> Error Error.Transaction_too_old
      in
      ignore (Future.try_fulfill promises.(i) answer : bool))
    verdicts

(* One commit version for a batch; [None] once our sequencer is
   unreachable, which ends this generation. *)
let fetch_version t =
  Future.catch
    (fun () ->
      Future.map
        (Context.rpc t.ctx ~timeout:2.0 ~from:t.proc t.sequencer Message.Seq_version)
        Option.some)
    (fun _ ->
      die t "sequencer unreachable (commit)";
      Future.return None)

(* Dequeue the next commit batch, up to the batch cap. *)
let take_commit_batch t =
  let batch = dequeue_up_to t.commit_queue t.ctx.Context.config.Config.max_commit_batch in
  Fdb_obs.Registry.set_gauge t.obs_queue_depth (float_of_int (Queue.length t.commit_queue));
  Fdb_obs.Registry.observe t.obs_commit_batch (float_of_int (List.length batch));
  batch

(* ---------- the serial commit path (pipeline depth 1) ----------

   The pre-pipeline implementation, kept as the baseline the
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
  let* version = fetch_version t in
  match version with
  | Some { Message.version = lsn; prev } ->
      let* verdicts = resolve_batch t lsn prev txns in
      let committed_mutations = committed_payload lsn txns verdicts in
      let entries = entries_for_batch t lsn prev ~kcv:t.kcv committed_mutations in
      let* all_acked = push_to_logs t entries in
      if not all_acked then begin
        (* Durability unknown: recovery will decide. Fail the epoch. *)
        reply_batch promises verdicts (Error Error.Commit_unknown_result);
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
              let+ () =
                Context.rpc t.ctx ~timeout:2.0 ~from:t.proc t.sequencer
                  (Message.Seq_report { committed = lsn })
              in
              true)
            (fun _ -> Future.return false)
        in
        if not reported then begin
          (* Durable but unannounced: only a new generation restores the
             GRV guarantee; clients must treat the outcome as unknown. *)
          reply_batch promises verdicts (Error Error.Commit_unknown_result);
          die t "sequencer unreachable (report)";
          Future.return ()
        end
        else begin
          Trace.emit "proxy_commit_done"
            [ ("lsn", Int64.to_string lsn); ("kcv", Int64.to_string t.kcv) ];
          reply_batch promises verdicts (Ok lsn);
          Future.return ()
        end
      end
  | None ->
      (* No version, nothing logged: definitely not committed. *)
      Array.iter
        (fun p -> ignore (Future.try_fulfill p (Error Error.Database_locked) : bool))
        promises;
      Future.return ()

(* Plain group commit: the loop owns [commit_flush_scheduled] until it finds
   the queue empty, and each batch is whatever queued while the previous
   one ran. *)
let rec commit_flush_serial t =
  if Queue.is_empty t.commit_queue then begin
    t.commit_flush_scheduled <- false;
    Future.return ()
  end
  else begin
    let batch = take_commit_batch t in
    t.commit_inflight <- 1;
    Fdb_obs.Registry.set_gauge t.obs_inflight 1.0;
    let* () = commit_batch t batch in
    t.commit_inflight <- 0;
    Fdb_obs.Registry.set_gauge t.obs_inflight 0.0;
    commit_flush_serial t
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
      (fun p -> ignore (Future.try_fulfill p (Error err) : bool))
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
    let* version = fetch_version t in
    release_version ();
    match version with
    | Some { Message.version = lsn; prev } ->
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
          reply_batch promises verdicts (Error Error.Commit_unknown_result);
          finish Batch_failed
        end
        else if not all_acked then begin
          (* Durability unknown: recovery will decide. Fail the epoch. *)
          reply_batch promises verdicts (Error Error.Commit_unknown_result);
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
                let+ () =
                  Context.rpc t.ctx ~timeout:2.0 ~from:t.proc t.sequencer
                    (Message.Seq_report { committed = lsn })
                in
                true)
              (fun _ -> Future.return false)
          in
          if not reported then begin
            (* Durable but unannounced: only a new generation restores the
               GRV guarantee; clients must treat the outcome as unknown. *)
            reply_batch promises verdicts (Error Error.Commit_unknown_result);
            die t "sequencer unreachable (report)";
            finish Batch_failed
          end
          else begin
            Trace.emit "proxy_commit_done"
              [ ("lsn", Int64.to_string lsn); ("kcv", Int64.to_string t.kcv) ];
            reply_batch promises verdicts (Ok lsn);
            finish Batch_ok
          end
        end
    | None ->
        (* No version, nothing logged: definitely not committed. This batch
           is a no-op in the chain — its fate is its predecessor's. *)
        reject_all Error.Database_locked;
        if t.dead then finish Batch_failed
        else
          let* prev_outcome = prev_done in
          finish prev_outcome

let rec commit_flush_pipelined t =
  t.commit_flush_scheduled <- false;
  (* [die] empties the queue and [handle] refuses new requests once dead,
     so a dead proxy always takes the first branch. *)
  if Queue.is_empty t.commit_queue then Future.return ()
  else if
    t.commit_inflight >= t.ctx.Context.config.Config.proxy_commit_pipeline_depth
  then
    (* Pipeline full: a completing batch schedules the next flush. *)
    Future.return ()
  else begin
    let batch = take_commit_batch t in
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
        schedule_commit_flush t;
        Future.return ());
    schedule_commit_flush t;
    Future.return ()
  end

(* The next batch leaves once the last one launched holds its version
   ([chain_version]), so it is whatever queued meanwhile. Depth 1 never
   moves the chain: its loop starts at once and drains the queue itself. *)
and schedule_commit_flush t =
  if (not t.commit_flush_scheduled) && not (Queue.is_empty t.commit_queue) then begin
    t.commit_flush_scheduled <- true;
    Engine.spawn ~process:t.proc "proxy-commit-flush" (fun () ->
        if t.ctx.Context.config.Config.proxy_commit_pipeline_depth <= 1 then
          commit_flush_serial t
        else
          let* () = t.chain_version in
          commit_flush_pipelined t)
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
                let+ tps = Context.rpc t.ctx ~timeout:1.0 ~from:t.proc rk Message.Rk_get_rate in
                (* The budget is cluster-wide; each proxy admits its share
                   (FDB hands out per-proxy budgets the same way). *)
                t.rate <- tps /. float_of_int (max 1 t.ctx.Context.config.Config.proxies))
              (fun _ -> Future.return ())
          in
          loop ()
      in
      loop ()

(* ---------- RPC surface ---------- *)

let handle (type r) t (req : r Message.req) : (r, Error.t) result Future.t =
  if t.dead then Future.return (Error Error.Wrong_epoch)
  else
    match req with
    | Message.Wait_failure -> Failure_watch.hold t.watch Fun.id
    | Message.Proxy_retire { pr_epoch } ->
        if pr_epoch >= t.epoch then die t "retired by the cluster controller";
        Future.return (Ok ())
    | Message.Grv_req ->
        let fut, promise = Future.make ~label:"proxy.grv_reply" () in
        Queue.push promise t.grv_queue;
        start_grv_flush t;
        let t0 = Engine.now () in
        Future.map fut (fun reply ->
            if Result.is_ok reply then begin
              Fdb_obs.Registry.incr t.obs_grv_served;
              Fdb_obs.Registry.observe t.obs_grv_lat (Engine.now () -. t0)
            end;
            reply)
    | Message.Commit_req txn ->
        Fdb_obs.Registry.incr t.obs_attempts;
        let fut, promise = Future.make ~label:"proxy.commit_reply" () in
        Queue.push (txn, promise) t.commit_queue;
        Fdb_obs.Registry.set_gauge t.obs_queue_depth
          (float_of_int (Queue.length t.commit_queue));
        schedule_commit_flush t;
        let t0 = Engine.now () in
        Future.map fut (fun reply ->
            (match reply with
            | Ok _ ->
                Fdb_obs.Registry.incr t.obs_commits;
                Fdb_obs.Registry.observe t.obs_commit_lat (Engine.now () -. t0)
            | Error Error.Not_committed -> Fdb_obs.Registry.incr t.obs_conflicts
            | Error Error.Transaction_too_old -> Fdb_obs.Registry.incr t.obs_too_old
            | Error _ -> ());
            reply)
    | _ -> Future.return (Error (Error.Internal "proxy: unexpected message"))

let create ctx proc ~epoch ~sequencer ~resolvers ~logs ~ratekeeper ~recovery_version =
  let ep = Network.fresh_endpoint ctx.Context.net in
  let reg = ctx.Context.metrics in
  let pid = proc.Process.pid in
  let t =
    {
      ctx;
      proc;
      epoch;
      sequencer;
      resolvers;
      logs;
      ratekeeper;
      kcv = recovery_version;
      dead = false;
      grv_queue = Queue.create ();
      grv_flush_running = false;
      rate = 1e5;
      tokens = 2000.0;
      last_refill = Engine.now ();
      commit_queue = Queue.create ();
      commit_flush_scheduled = false;
      commit_inflight = 0;
      chain_version = Future.return ();
      chain_done = Future.return Batch_ok;
      in_flight = [];
      watch = Failure_watch.create proc;
      obs_grv_lat = Fdb_obs.Registry.histogram reg ~role:Fdb_obs.Registry.Proxy ~process:pid "grv_latency";
      obs_commit_lat = Fdb_obs.Registry.histogram reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_latency";
      obs_resolve_lat = Fdb_obs.Registry.histogram reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_resolve_latency";
      obs_logpush_lat = Fdb_obs.Registry.histogram reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_logpush_latency";
      obs_grv_batch = Fdb_obs.Registry.histogram reg ~role:Fdb_obs.Registry.Proxy ~process:pid "grv_batch_size";
      obs_commit_batch = Fdb_obs.Registry.histogram reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_batch_size";
      obs_grv_served = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Proxy ~process:pid "grv_served";
      obs_attempts = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_attempts";
      obs_commits = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commits";
      obs_conflicts = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Proxy ~process:pid "conflicts";
      obs_too_old = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Proxy ~process:pid "too_old";
      obs_inflight = Fdb_obs.Registry.gauge reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_inflight_batches";
      obs_queue_depth = Fdb_obs.Registry.gauge reg ~role:Fdb_obs.Registry.Proxy ~process:pid "commit_queue_depth";
    }
  in
  Context.serve ctx ep proc { handle = (fun req -> handle t req) };
  Engine.spawn ~process:proc "proxy-rate" (fun () -> rate_loop t);
  (t, ep)
