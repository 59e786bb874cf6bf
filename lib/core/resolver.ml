open Fdb_sim
open Future.Syntax
module Rvm = Fdb_kv.Range_version_map

type txns = (Types.version * Message.key_range list * Message.key_range list) array
type answer = (Message.resolver_verdict array, Error.t) result

type t = {
  ctx : Context.t;
  proc : Process.t;
  epoch : Types.epoch;
  range : Message.key_range;
  rvm : Rvm.t;
  mutable last_lsn : Types.version;
  (* Batches whose predecessor has not arrived yet, keyed by their prev:
     the batch's LSN, its transactions and its waiter. *)
  parked : (Types.version, Types.version * txns * answer Future.promise) Fdb_util.Det_tbl.t;
  (* Replay cache so duplicate deliveries get consistent verdicts, plus the
     cached LSNs in arrival order: they are assigned monotonically, so the
     expiry loop pops the below-floor prefix instead of scanning the table. *)
  verdicts : (Types.version, Message.resolver_verdict array) Fdb_util.Det_tbl.t;
  verdict_lsns : Types.version Queue.t;
  (* The sequencer's long-poll on us. A resolver never ends on its own:
     only its process's death ends the poll. *)
  watch : unit Failure_watch.t;
  (* metrics plane *)
  obs_checked : Fdb_obs.Registry.counter;
  obs_conflicts : Fdb_obs.Registry.counter;
  obs_too_old : Fdb_obs.Registry.counter;
  obs_entries : Fdb_obs.Registry.gauge;
  obs_check_cost : Fdb_obs.Registry.gauge;
  obs_parked : Fdb_obs.Registry.gauge;
}

let resolve_timeout = 2.0
let last_lsn t = t.last_lsn

let clip (lo, hi) (from, until) =
  let f = if from > lo then from else lo in
  let u = if until < hi then until else hi in
  if f < u then Some (f, u) else None

(* Algorithm 1, over the whole batch: within a batch, earlier transactions'
   writes are visible to later conflict checks because commits share the
   batch's single version. *)
let check_batch t lsn txns =
  Array.map
    (fun (read_version, reads, writes) ->
      (* Blind writes carry no snapshot: nothing to check, nothing too old. *)
      if reads <> [] && read_version < Rvm.oldest t.rvm then Message.V_too_old
      else begin
        let conflicted =
          List.exists
            (fun r ->
              match clip t.range r with
              | None -> false
              | Some (from, until) ->
                  Rvm.max_version t.rvm ~from ~until > read_version)
            reads
        in
        if conflicted then Message.V_conflict
        else begin
          List.iter
            (fun w ->
              match clip t.range w with
              | None -> ()
              | Some (from, until) -> Rvm.note_write t.rvm ~from ~until lsn)
            writes;
          Message.V_commit
        end
      end)
    txns

let cost txns =
  Array.fold_left
    (fun acc (_, reads, writes) ->
      acc +. Params.resolver_per_txn
      +. (Params.resolver_per_range *. float_of_int (List.length reads + List.length writes)))
    0.0 txns

let rec process t lsn prev txns =
  assert (prev = t.last_lsn);
  let* () = Engine.cpu t.proc (Params.cpu (cost txns)) in
  (* Re-check the chain head after the CPU yield (rule R5): a duplicate
     delivery that passed handle's [rs_prev = t.last_lsn] guard before we
     advanced [last_lsn] runs a concurrent [process] for the same slot. The
     loser must replay the winner's verdicts, not re-run check_batch
     against a version map the winner already mutated. *)
  if t.last_lsn <> prev then begin
    Trace.emit "resolver_stale_process"
      [ ("lsn", Int64.to_string lsn); ("prev", Int64.to_string prev) ];
    match Fdb_util.Det_tbl.find_opt t.verdicts lsn with
    | Some v -> Future.return (Ok v)
    | None -> Future.return (Error (Error.Internal "stale resolve"))
  end
  else begin
  let work_before = Rvm.work t.rvm in
  let verdicts = check_batch t lsn txns in
  Fdb_obs.Registry.set_gauge t.obs_check_cost
    (float_of_int (Rvm.work t.rvm - work_before));
  Array.iter
    (fun v ->
      Fdb_obs.Registry.incr t.obs_checked;
      match v with
      | Message.V_conflict -> Fdb_obs.Registry.incr t.obs_conflicts
      | Message.V_too_old -> Fdb_obs.Registry.incr t.obs_too_old
      | Message.V_commit -> ())
    verdicts;
  Fdb_obs.Registry.set_gauge t.obs_entries (float_of_int (Rvm.entry_count t.rvm));
  t.last_lsn <- lsn;
  Fdb_util.Det_tbl.replace t.verdicts lsn verdicts;
  Queue.push lsn t.verdict_lsns;
  (* Unpark the successor, if it already arrived. *)
  (match Fdb_util.Det_tbl.find_opt t.parked lsn with
  | Some (next, next_txns, promise) ->
      Fdb_util.Det_tbl.remove t.parked lsn;
      Fdb_obs.Registry.set_gauge t.obs_parked
        (float_of_int (Fdb_util.Det_tbl.length t.parked));
      Engine.spawn ~process:t.proc "resolver-unpark" (fun () ->
          let* reply = process t next lsn next_txns in
          ignore (Future.try_fulfill promise reply : bool);
          Future.return ())
  | None -> ());
  Future.return (Ok verdicts)
  end

let handle (type r) t (req : r Message.req) : (r, Error.t) result Future.t =
  match req with
  | Message.Wait_failure -> Failure_watch.hold t.watch Fun.id
  | Message.Resolve_req { rs_epoch; rs_lsn; rs_prev; rs_txns } ->
      if rs_epoch <> t.epoch then Future.return (Error Error.Wrong_epoch)
      else if rs_lsn <= t.last_lsn then (
        (* Duplicate delivery: replay the original verdicts. *)
        match Fdb_util.Det_tbl.find_opt t.verdicts rs_lsn with
        | Some v -> Future.return (Ok v)
        | None -> Future.return (Error (Error.Internal "stale resolve")))
      else if rs_prev = t.last_lsn then process t rs_lsn rs_prev rs_txns
      else begin
        (* Out of order: park until the chain catches up. A batch is already
           parked on this prev when the delivery is a reordered duplicate —
           overwriting would leak the first waiter's promise (lost wakeup),
           so reject the duplicate; the parked original still gets its
           verdicts when the chain fills. *)
        match Fdb_util.Det_tbl.find_opt t.parked rs_prev with
        | Some _ ->
            Trace.emit "resolver_park_dup"
              [ ("lsn", Int64.to_string rs_lsn); ("prev", Int64.to_string rs_prev) ];
            Future.return (Error (Error.Internal "duplicate parked resolve"))
        | None ->
            let fut, promise = Future.make ~label:"resolver.park" () in
            Fdb_util.Det_tbl.replace t.parked rs_prev (rs_lsn, rs_txns, promise);
            Fdb_obs.Registry.set_gauge t.obs_parked
              (float_of_int (Fdb_util.Det_tbl.length t.parked));
            Trace.emit "resolver_park"
              [ ("lsn", Int64.to_string rs_lsn); ("prev", Int64.to_string rs_prev) ];
            (* Once the proxy's RPC has timed out, nobody waits for this
               batch, and its predecessor may never come (its proxy's
               generation ended): answer the waiter with a rejection. The
               batch stays parked, so a late predecessor still unparks it
               and the chain keeps moving. *)
            Engine.schedule ~after:resolve_timeout ~process:t.proc (fun () ->
                match Fdb_util.Det_tbl.find_opt t.parked rs_prev with
                | Some (_, _, p) when p == promise ->
                    ignore
                      (Future.try_fulfill promise
                         (Error (Error.Internal "resolver: predecessor never came"))
                        : bool)
                | Some _ | None -> ());
            fut
      end
  | _ -> Future.return (Error (Error.Internal "resolver: unexpected message"))

(* Coalesce history that has left the MVCC window (§2.4.2: "modified keys
   expire after the MVCC window"). *)
let expiry_loop t =
  let rec loop () =
    let* () = Engine.sleep 1.0 in
    let floor = Int64.sub t.last_lsn Types.mvcc_window in
    if floor > 0L then begin
      Rvm.expire t.rvm ~before:floor;
      (* LSNs were enqueued in increasing order: pop the expired prefix —
         O(expired), never a scan of the whole replay cache. *)
      let continue = ref true in
      while !continue do
        match Queue.peek_opt t.verdict_lsns with
        | Some lsn when lsn < floor ->
            ignore (Queue.pop t.verdict_lsns : Types.version);
            Fdb_util.Det_tbl.remove t.verdicts lsn
        | _ -> continue := false
      done
    end;
    Fdb_obs.Registry.set_gauge t.obs_entries (float_of_int (Rvm.entry_count t.rvm));
    loop ()
  in
  loop ()

let create ctx proc ~epoch ~range ~start_lsn =
  let ep = Network.fresh_endpoint ctx.Context.net in
  let reg = ctx.Context.metrics in
  let pid = proc.Process.pid in
  let t =
    {
      ctx;
      proc;
      epoch;
      range;
      rvm = Rvm.create ~rng:(Engine.fork_rng ()) ();
      last_lsn = start_lsn;
      parked = Fdb_util.Det_tbl.create ~size:16 ();
      verdicts = Fdb_util.Det_tbl.create ~size:1024 ();
      verdict_lsns = Queue.create ();
      watch = Failure_watch.create proc;
      obs_checked = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Resolver ~process:pid "txns_checked";
      obs_conflicts = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Resolver ~process:pid "conflicts";
      obs_too_old = Fdb_obs.Registry.counter reg ~role:Fdb_obs.Registry.Resolver ~process:pid "too_old";
      obs_entries = Fdb_obs.Registry.gauge reg ~role:Fdb_obs.Registry.Resolver ~process:pid "history_entries";
      obs_check_cost = Fdb_obs.Registry.gauge reg ~role:Fdb_obs.Registry.Resolver ~process:pid "batch_check_cost";
      obs_parked = Fdb_obs.Registry.gauge reg ~role:Fdb_obs.Registry.Resolver ~process:pid "parked_batches";
    }
  in
  Context.serve ctx ep proc { handle = (fun req -> handle t req) };
  Engine.spawn ~process:proc "resolver-expiry" (fun () -> expiry_loop t);
  (t, ep)
