open Fdb_sim
open Future.Syntax
module Mutation = Fdb_kv.Mutation
module Store = Versioned_store

(* One registered watch: fire (fulfill the promise with the mutation's
   version) as soon as any mutation to the watched key applies at a version
   strictly above [we_version]. The promise is deliberately unlabeled: its
   resolution is guaranteed by the handler's poll timer (lifecycle-sanitizer
   convention for timer-backed promises). *)
type watch_entry = {
  we_id : int;
  we_version : Types.version;
  we_promise : Types.version Future.promise;
}

type t = {
  ctx : Context.t;
  proc : Process.t;
  ep : int;
  id : int; (* also the tag *)
  store : Store.t;
  mutable version : Types.version; (* caught up through this version *)
  mutable kcv : Types.version; (* durability floor learned from logs *)
  mutable epoch : Types.epoch;
  mutable logs : (int * int) list;
  mutable waiters : (Types.version * unit Future.promise) list;
  mutable stale_pulls : int; (* consecutive failed peeks *)
  mutable peek : Message.peek_reply Future.promise option;
      (* the in-flight peek's reply, which adopting a newer generation
         breaks: that peek went to the old generation's logs *)
  refreshing : unit Future.flight; (* the coordinator consultation in flight *)
  mutable blind_atomics : (string * Types.version) list;
      (* (key, version) of atomic ops applied to keys we do not serve yet:
         before a move's snapshot lands their base is missing, so an install
         whose snapshot lies below one of them must be refused *)
  mutable fetches_in_flight : int;
      (* durability passes pause while > 0: a pop racing the snapshot
         install could either land stale data after the install or be lost
         under it; pausing (a fetch lasts well under a durable interval's
         worth of window growth) removes the interleaving entirely. *)
  mutable stats_ticks : int;
  mutable watch_seq : int;
  watches : (string, watch_entry list) Fdb_util.Det_tbl.t;
      (* key -> registrations in arrival order; in-memory only (a reboot
         drops them and the clients' long-polls fail over / re-register) *)
  (* metrics plane: keyed by the storage id, which is stable across reboots *)
  obs_read_lat : Fdb_obs.Registry.timer;
  obs_reads : Fdb_obs.Registry.counter;
  obs_range_reqs : Fdb_obs.Registry.counter;
  obs_watch_reqs : Fdb_obs.Registry.counter;
  obs_watch_fires : Fdb_obs.Registry.counter;
  obs_lag : Fdb_obs.Registry.gauge;
  obs_window : Fdb_obs.Registry.gauge;
  obs_busy : Fdb_obs.Registry.gauge;
  obs_version : Fdb_obs.Registry.gauge;
  obs_durable : Fdb_obs.Registry.gauge;
  obs_heartbeat : Fdb_obs.Registry.gauge;
  (* per-shard traffic/size metrics, lazily registered as shards arrive *)
  shard_read_ctrs : (string, Fdb_obs.Registry.counter) Fdb_util.Det_tbl.t;
  shard_write_ctrs : (string, Fdb_obs.Registry.counter) Fdb_util.Det_tbl.t;
  shard_size_gauges : (string, Fdb_obs.Registry.gauge) Fdb_util.Det_tbl.t;
}

(* The per-shard metric [stem] of the shard starting at [lo]: the storage
   servers publish these and the DataDistributor reads them. *)
let shard_metric stem lo =
  stem ^ ":"
  ^ String.concat "" (List.init (String.length lo) (fun i -> Printf.sprintf "%02x" (Char.code lo.[i])))

let lag_seconds t =
  let lag =
    Int64.to_float (Int64.sub (Types.time_version ()) t.version) /. Types.versions_per_second
  in
  if lag < 0.0 then 0.0 else lag

(* The served ranges come live from the shared shard map, so a runtime team
   change (Shard_map.set_team) takes effect on the next request — members
   removed from a team start answering Wrong_shard instead of silently
   serving (or silently missing) data. *)
let served_shards t = Shard_map.shards_of_storage t.ctx.Context.shard_map t.id

(* Ranges we must *apply mutations for*: everything served plus shards
   moving here (dual-tagged traffic arrives on our tag from begin_move on,
   and must be buffered so the post-snapshot suffix is not lost). *)
let applied_shards t = Shard_map.apply_ranges_of_storage t.ctx.Context.shard_map t.id

let in_shards t key = Shard_map.serves_key t.ctx.Context.shard_map t.id key
let in_applied_shards t key = Shard_map.applies_key t.ctx.Context.shard_map t.id key

(* Does this server serve the whole [from, until)? Client sub-reads are
   per-shard fragments, so a single served range must cover it. *)
let covers t ~from ~until =
  from >= until || Shard_map.serves_range t.ctx.Context.shard_map t.id ~from ~until

let clip_to_shards t ~from ~until =
  List.filter_map
    (fun (lo, hi) ->
      let f = if from > lo then from else lo in
      let u = if until < hi then until else hi in
      if f < u then Some (f, u) else None)
    (applied_shards t)

(* Wake watchers of every key the (concrete) mutation touches whose watch
   version lies below [v]. No-op when the table is empty, so runs that
   never register a watch keep byte-identical event schedules. Promise
   callbacks run synchronously here; the woken handlers' replies are
   ordinary network sends. *)
let notify_watches t v (m : Mutation.t) =
  if Fdb_util.Det_tbl.length t.watches > 0 then begin
    let fire key =
      match Fdb_util.Det_tbl.find_opt t.watches key with
      | None -> ()
      | Some entries ->
          let fired, keep = List.partition (fun e -> v > e.we_version) entries in
          (match keep with
          | [] -> Fdb_util.Det_tbl.remove t.watches key
          | l -> Fdb_util.Det_tbl.replace t.watches key l);
          List.iter
            (fun e ->
              Fdb_obs.Registry.incr t.obs_watch_fires;
              Trace.emit "ss_watch_fire"
                [ ("ss", string_of_int t.id); ("key", String.escaped key);
                  ("v", Int64.to_string v) ];
              ignore (Future.try_fulfill e.we_promise v : bool))
            fired
    in
    match m with
    | Mutation.Set (k, _) | Mutation.Clear k -> fire k
    | Mutation.Clear_range (a, b) ->
        (* Det_tbl folds key-sorted, so the firing order is deterministic. *)
        let covered =
          Fdb_util.Det_tbl.fold
            (fun k _ acc -> if a <= k && k < b then k :: acc else acc)
            t.watches []
        in
        List.iter fire (List.rev covered)
    | Mutation.Atomic _ -> () (* materialized before reaching here *)
  end

let apply_mutation t v (m : Mutation.t) =
  (match m with
  | Mutation.Atomic (_, key, _) when not (in_shards t key) ->
      t.blind_atomics <- (key, v) :: t.blind_atomics
  | _ -> ());
  notify_watches t v (Store.apply t.store v m)

(* ---------- per-shard traffic accounting (DD's rebalancing signal) ---------- *)

let shard_lo t key = fst (Shard_map.shard_range_for_key t.ctx.Context.shard_map key)

let shard_counter t cache stem lo =
  Fdb_util.Det_tbl.find_or_add cache lo (fun () ->
      Fdb_obs.Registry.counter t.ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
        ~process:t.id
        (shard_metric stem lo))

let note_read_traffic t key bytes =
  if bytes > 0 then
    let lo = shard_lo t key in
    Fdb_obs.Registry.incr ~by:bytes (shard_counter t t.shard_read_ctrs "shard_read_bytes" lo)

let note_write_traffic t key bytes =
  if bytes > 0 then
    let lo = shard_lo t key in
    Fdb_obs.Registry.incr ~by:bytes (shard_counter t t.shard_write_ctrs "shard_write_bytes" lo)

let wake_waiters t =
  let ready, waiting = List.partition (fun (v, _) -> v <= t.version) t.waiters in
  t.waiters <- waiting;
  (* A false fulfil would strand a read waiter forever: trace it. *)
  List.iter
    (fun (_, p) ->
      if not (Future.try_fulfill p ()) then Trace.emit "ss_waiter_lost" [])
    ready

let apply_entries t ~as_of_epoch entries end_v kcv =
  (* Strictly sequential: mutations must enter the window in version order.
     Abort if a newer generation was adopted mid-batch (the awaits below
     yield): these entries came from the old generation's logs and may sit
     above the rollback boundary. *)
  let rec go = function
    | [] -> Future.return ()
    | _ when t.epoch <> as_of_epoch -> Future.return ()
    | (v, muts) :: rest ->
        if v <= t.version then go rest
        else begin
          let bytes = List.fold_left (fun a m -> a + Mutation.byte_size m) 0 muts in
          let* () =
            Engine.cpu t.proc
              (Params.cpu
                 (Params.storage_per_apply
                 +. (Params.storage_per_apply_byte *. float_of_int bytes)))
          in
          List.iter
            (fun m ->
              let lo, hi = Mutation.key_range m in
              (* Only apply the parts of the mutation we serve or are
                 receiving as a move destination. *)
              match m with
              | Mutation.Clear_range _ ->
                  List.iter
                    (fun (f, u) ->
                      apply_mutation t v (Mutation.Clear_range (f, u));
                      note_write_traffic t f (Mutation.byte_size m))
                    (clip_to_shards t ~from:lo ~until:hi)
              | _ ->
                  if in_applied_shards t lo then begin
                    apply_mutation t v m;
                    note_write_traffic t lo (Mutation.byte_size m)
                  end)
            muts;
          if v > t.version then t.version <- v;
          go rest
        end
  in
  let* () = go entries in
  if t.epoch = as_of_epoch then begin
    if end_v > t.version then t.version <- end_v;
    if kcv > t.kcv then t.kcv <- kcv
  end;
  wake_waiters t;
  Future.return ()

(* ---------- log pulling (§2.4.3) ---------- *)

(* Only the k servers of Figure 2's per-tag replica set hold this tag's
   payload; failing over to any other log server would return an empty
   stream whose end-version still advances — silently skipping our own
   mutations. Rotate within the replica set only. *)
let preferred_log t =
  match t.logs with
  | [] -> None
  | logs ->
      let replicas =
        Log_server.logs_for_tag ~n_logs:(List.length logs)
          ~replication:t.ctx.Context.config.Config.log_replication t.id
      in
      let replica = List.nth replicas (t.stale_pulls mod List.length replicas) in
      Some (snd (List.nth logs replica))

(* Adopt a newer transaction-system generation. The rollback boundary is
   the RV of the FIRST recovery after our current epoch (from the RV
   history): later recoveries have higher RVs, under which our phantom
   (semi-committed, since rolled back) window data could survive. When the
   history has been trimmed past that entry, fall back to the always-safe
   durable floor (the persistent store only ever holds known-committed
   data). *)
let adopt t ~epoch ~rv ~history ~logs =
  if epoch > t.epoch then begin
    let boundary =
      List.fold_left
        (fun acc (e, erv) -> if e > t.epoch && erv < acc then erv else acc)
        rv history
    in
    let boundary =
      if List.exists (fun (e, _) -> e = t.epoch + 1) history then boundary
      else Store.durable t.store
    in
    let target = max boundary (Store.durable t.store) in
    Trace.emit "ss_adopt_state"
      [ ("ss", string_of_int t.id); ("epoch", string_of_int epoch);
        ("target", Int64.to_string target) ];
    t.epoch <- epoch;
    t.logs <- logs;
    Option.iter
      (fun p -> ignore (Future.try_break p (Future.Cancelled "peek abandoned") : bool))
      t.peek;
    t.peek <- None;
    if t.version > target then begin
      let dropped = Store.rollback t.store ~after:target in
      Trace.emit "ss_rollback"
        [ ("ss", string_of_int t.id); ("rv", Int64.to_string target);
          ("dropped", string_of_int dropped) ];
      t.version <- target
    end;
    t.stale_pulls <- 0
  end
  else if epoch = t.epoch then t.logs <- logs

(* When peeks keep failing, consult the coordinators for a newer
   transaction-system generation (the fallback path behind Ss_recover). A
   caller that finds a consultation in flight waits for that one. *)
let refresh_from_coordinators t =
  Future.single_flight t.refreshing @@ fun () ->
  let reg =
    Fdb_paxos.Register.create
      (Context.paxos_transport t.ctx ~from:t.proc)
      ~reg:"ts-state" ~proposer:(Context.proposer_id t.proc)
  in
  let* v = Fdb_paxos.Register.read_any reg in
  (match Option.bind v Message.decode_coordinated_state with
  | Some cs when cs.Message.cs_epoch > t.epoch ->
      adopt t ~epoch:cs.Message.cs_epoch ~rv:cs.Message.cs_recovery_version
        ~history:cs.Message.cs_rv_history ~logs:cs.Message.cs_logs
  | _ -> ());
  Future.return ()

(* One peek and the application of its reply. The result says whether the
   loop may peek again at once: after a reply, or after [adopt] abandoned
   the peek for a newer generation's logs. A failed pull backs off. *)
let pull_once t =
  match preferred_log t with
  | None ->
      let* () = refresh_from_coordinators t in
      Future.return false
  | Some log_ep ->
      let as_of_epoch = t.epoch in
      (* Unlabeled: the peek's own timeout guarantees the resolution. *)
      let reply, deliver = Future.make () in
      Future.on_resolve
        (Context.rpc t.ctx ~timeout:Log_server.peek_timeout ~from:t.proc log_ep
           (Message.Log_peek { tag = t.id; from_version = Int64.add t.version 1L }))
        (fun r ->
          ignore
            (match r with
             | Ok m -> Future.try_fulfill deliver m
             | Error e -> Future.try_break deliver e
              : bool));
      t.peek <- Some deliver;
      Future.catch
        (fun () ->
          let* { Message.pk_entries; pk_end; pk_kcv } = reply in
          t.stale_pulls <- 0;
          (* fdb-lint: allow R5 -- deliberate pre-RPC snapshot: entries apply under the epoch in force when the peek was issued (Wrong_epoch protocol) *)
          let* () = apply_entries t ~as_of_epoch pk_entries pk_end pk_kcv in
          Future.return true)
        (function
          | Future.Cancelled _ ->
              (* [adopt] abandoned the peek: pull from the new logs now. *)
              Future.return true
          | Error.Fdb Error.Wrong_epoch ->
              (* The log server is locked: a recovery is in flight. *)
              t.stale_pulls <- t.stale_pulls + 1;
              let* () = refresh_from_coordinators t in
              Future.return false
          | exn ->
              Trace.emit "ss_pull_fail"
                [ ("ss", string_of_int t.id); ("exn", Printexc.to_string exn) ];
              t.stale_pulls <- t.stale_pulls + 1;
              let* () =
                if t.stale_pulls > 3 then refresh_from_coordinators t
                else Future.return ()
              in
              Future.return false)

(* The peek long-polls on the LogServer, so the loop needs no tick of its
   own: it sleeps only after a failed pull. *)
let pull_loop t =
  let rec loop () =
    let* ok = pull_once t in
    (* Buggify: a sluggish pull loop widens the lag/rollback windows. *)
    let slow = Buggify.delay ~p:0.02 "ss_slow_peek" /. 5.0 in
    let pause = if ok then slow else Params.storage_pull_backoff +. slow in
    let* () = if pause > 0.0 then Engine.sleep pause else Future.return () in
    loop ()
  in
  loop ()

(* ---------- metrics publication (the shared metrics plane) ---------- *)

(* The Ratekeeper and the Status workload read these gauges through
   [live_load] instead of issuing a stats RPC scatter; the heartbeat gauge
   doubles as a liveness signal (a dead process stops publishing). *)
let publish_stats t =
  let busy = t.proc.Process.cpu_busy_until -. Engine.now () in
  Fdb_obs.Registry.set_gauge t.obs_lag (lag_seconds t);
  Fdb_obs.Registry.set_gauge t.obs_window (float_of_int (Store.event_count t.store));
  Fdb_obs.Registry.set_gauge t.obs_busy (if busy > 0.0 then busy else 0.0);
  Fdb_obs.Registry.set_gauge t.obs_version (Int64.to_float t.version);
  Fdb_obs.Registry.set_gauge t.obs_durable (Int64.to_float (Store.durable t.store));
  Fdb_obs.Registry.set_gauge t.obs_heartbeat (Engine.now ())

let live_load reg ~now =
  let module R = Fdb_obs.Registry in
  R.gauges reg ~role:R.Storage "heartbeat"
  |> List.filter_map (fun (ss, hb) ->
         if now -. hb > Params.heartbeat_timeout then None
         else
           let g name =
             Option.value ~default:0.0 (R.gauge_value reg ~role:R.Storage ~process:ss name)
           in
           Some (g "lag", int_of_float (g "window_events"), g "busy"))

(* Per-shard persistent size: an image range scan, so only refreshed every
   8th stats tick (~2 s) — cheap enough, fresh enough for DD split/merge
   decisions. *)
let publish_shard_sizes t =
  List.iter
    (fun (lo, hi) ->
      let bytes =
        Seq.fold_left
          (fun a (k, v) -> a + String.length k + String.length v)
          0
          (Store.image_range t.store ~from:lo ~until:hi)
      in
      let g =
        Fdb_util.Det_tbl.find_or_add t.shard_size_gauges lo (fun () ->
            Fdb_obs.Registry.gauge t.ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
              ~process:t.id
              (shard_metric "shard_size_bytes" lo))
      in
      Fdb_obs.Registry.set_gauge g (float_of_int bytes))
    (served_shards t)

let stats_loop t =
  let rec loop () =
    let* () = Engine.sleep Params.heartbeat_interval in
    publish_stats t;
    t.stats_ticks <- t.stats_ticks + 1;
    if t.stats_ticks mod 8 = 0 then publish_shard_sizes t;
    loop ()
  in
  loop ()

(* ---------- durability (§2.4.3: delayed, coalesced persistence) ---------- *)

let make_durable t =
  let target = min t.kcv (Int64.sub t.version Types.mvcc_window) in
  if t.fetches_in_flight > 0 then Future.return ()
  else if target > Store.durable t.store then begin
    t.blind_atomics <- List.filter (fun (_, v) -> v > target) t.blind_atomics;
    let* () = Store.make_durable t.store target in
    (* Tell the logs this data no longer needs them. *)
    List.iter
      (fun (_, ep) ->
        Context.send t.ctx ~from:t.proc ep (Message.Log_pop { tag = t.id; up_to = target }))
      t.logs;
    Future.return ()
  end
  else Future.return ()

let durable_loop t =
  let rec loop () =
    let* () = Engine.sleep Params.storage_durable_interval in
    let* () = make_durable t in
    loop ()
  in
  loop ()

(* ---------- reads ---------- *)

let wait_for_version t v =
  if v <= t.version then Future.return true
  else begin
    let fut, promise = Future.make ~label:"ss.version_wait" () in
    t.waiters <- (v, promise) :: t.waiters;
    Future.catch
      (fun () -> Future.map (Engine.timeout Params.storage_read_wait fut) (fun () -> true))
      (function Engine.Timed_out -> Future.return false | e -> raise e)
  end

(* ---------- RPC surface ---------- *)

(* Generation gate: a read version minted by a newer transaction-system
   generation must not be served until we adopt that generation (rolling
   back any semi-committed suffix) — otherwise a partitioned replica could
   serve stale or phantom data. *)
let ensure_epoch t rv_epoch =
  if rv_epoch <= t.epoch then Future.return true
  else
    let rec wait tries =
      if tries = 0 then Future.return (rv_epoch <= t.epoch)
      else
        let* () = refresh_from_coordinators t in
        if rv_epoch <= t.epoch then Future.return true
        else
          let* () = Engine.sleep 0.05 in
          wait (tries - 1)
    in
    wait 5

(* Load shedding, by the CPU work already queued ahead of a read that
   arrives now. A read queued behind more than the client's timeout would
   burn a core for an answer nobody is waiting for (the spiral breaker real
   storage servers have). A point read the client may bounce is refused as
   soon as more than one point read's work is queued: the client sends it
   to the next replica of the team, which is likelier to be idle (DESIGN.md,
   "Client replica choice"). Either refusal is cheap: it charges no CPU. *)
let backlogged t ~may_bounce =
  let backlog = t.proc.Process.cpu_busy_until -. Engine.now () in
  backlog > Params.client_read_timeout
  || (may_bounce && backlog > Params.cpu Params.storage_per_point_read)

(* The one admission gate of every read of [\[from, until)] at [version]:
   the generation gate, the version wait, the MVCC window, shard ownership,
   and a moved-in range's snapshot floor, in that order. [None] admits. *)
let admit t ~version ~epoch ~from ~until =
  let* current = ensure_epoch t epoch in
  let* ok = if current then wait_for_version t version else Future.return false in
  if not (current && ok) then Future.return (Some Error.Future_version)
  else if version < Store.oldest t.store && Store.oldest t.store > 0L then begin
    Trace.emit "ss_too_old"
      [ ("ss", string_of_int t.id); ("rv", Int64.to_string version);
        ("oldest", Int64.to_string (Store.oldest t.store));
        ("version", Int64.to_string t.version);
        ("kcv", Int64.to_string t.kcv);
        ("durable", Int64.to_string (Store.durable t.store)) ];
    Future.return (Some Error.Transaction_too_old)
  end
  else if not (covers t ~from ~until) then Future.return (Some Error.Wrong_shard)
  else if version < Store.floor_over t.store ~from ~until then
    (* The range arrived here by shard movement and the fetched snapshot
       cannot reconstruct state below its version: retryable. *)
    Future.return (Some Error.Transaction_too_old)
  else Future.return None

(* ---------- shard movement: destination-side fetch (§2.5) ---------- *)

let drain ctx ~proc ep ~from ~until ~version ~epoch =
  let rec loop cursor acc =
    let* { Message.rr_rows; rr_more } =
      Context.rpc ctx ~timeout:2.0 ~from:proc ep
        (Message.Storage_get_range
           {
             gr_from = cursor;
             gr_until = until;
             gr_version = version;
             gr_limit = max_int;
             gr_byte_limit = Params.range_bytes_want_all;
             gr_reverse = false;
             gr_epoch = epoch;
           })
    in
    match List.rev_append rr_rows acc with
    | (last, _) :: _ as acc when rr_more && rr_rows <> [] -> loop (Types.next_key last) acc
    | acc -> Future.return (List.rev acc)
  in
  loop from []

(* Drain a committed snapshot of [from, until) at [version] from the current
   team, install it in the image under a snapshot floor, and ack. The DD
   has already begun the move, so our own tLog tag carries every mutation
   above [version] for the range — the floor makes window entries at or
   below it invisible (the snapshot embodies them) and the durable path
   skips re-applying them. A failed source is skipped and the next one is
   drained from [from] again. A snapshot older than a floor already over
   the range is refused: the floor would hide the window entries that
   separate the two snapshots. That is checked after the drain, since a
   concurrent fetch may install a floor while this one drains. *)
let fetch_shard t ~from ~until ~version ~epoch ~sources =
  let srcs = Array.of_list (List.filter (fun ss -> ss <> t.id) sources) in
  if Array.length srcs = 0 then
    Future.return (Error (Error.Internal "fetch: no source replica"))
  else if Store.durable t.store > version then
    (* Our durable horizon already passed the snapshot version: data above
       it is in the image and would be wiped by the install. *)
    Future.return (Error (Error.Internal "fetch: snapshot below durable horizon"))
  else begin
    t.fetches_in_flight <- t.fetches_in_flight + 1;
    Future.protect
      ~finally:(fun () -> t.fetches_in_flight <- t.fetches_in_flight - 1)
      (fun () ->
        let rec fetch attempt =
          if attempt > 3 * Array.length srcs then Future.return None
          else
            let src = srcs.(attempt mod Array.length srcs) in
            Future.catch
              (fun () ->
                Future.map
                  (drain t.ctx ~proc:t.proc t.ctx.Context.storage_eps.(src) ~from ~until
                     ~version ~epoch)
                  Option.some)
              (fun _ ->
                let* () = Engine.sleep 0.2 in
                fetch (attempt + 1))
        in
        let* fetched = fetch 0 in
        match fetched with
        | None -> Future.return (Error (Error.Internal "fetch: no source answered"))
        | Some kvs ->
            let bytes =
              List.fold_left (fun a (k, v) -> a + String.length k + String.length v) 0 kvs
            in
            let* () =
              Engine.cpu t.proc
                (Params.cpu (Params.storage_per_apply_byte *. float_of_int bytes))
            in
            let in_range (k, _) = from <= k && k < until in
            let floor = Store.floor_over t.store ~from ~until in
            if Store.durable t.store > version then
              Future.return (Error (Error.Internal "fetch: snapshot below durable horizon"))
            else if floor > version then begin
              Trace.emit "ss_fetch_below_floor"
                [ ("ss", string_of_int t.id); ("lo", String.escaped from);
                  ("since", Int64.to_string version); ("floor", Int64.to_string floor) ];
              Future.return (Error (Error.Internal "fetch: snapshot below a floor"))
            end
            else if List.exists (fun ((_, v) as e) -> in_range e && v > version) t.blind_atomics
            then
              Future.return (Error (Error.Internal "fetch: atomic op applied without its base"))
            else begin
              t.blind_atomics <- List.filter (fun e -> not (in_range e)) t.blind_atomics;
              let* () = Store.install t.store ~lo:from ~hi:until ~since:version kvs in
              Trace.emit "ss_shard_fetched"
                [ ("ss", string_of_int t.id); ("lo", String.escaped from);
                  ("rows", string_of_int (List.length kvs));
                  ("since", Int64.to_string version) ];
              Future.return (Ok ())
            end)
  end

(* Median-by-bytes key of a range (DD's organic split point). *)
let split_point t ~from ~until =
  let rows = Store.image_range t.store ~from ~until in
  let size (k, v) = String.length k + String.length v in
  let total = Seq.fold_left (fun a kv -> a + size kv) 0 rows in
  let rec median acc rows =
    match rows () with
    | Seq.Nil -> None
    | Seq.Cons (((k, _) as kv), rest) ->
        if acc * 2 >= total && k > from then Some k else median (acc + size kv) rest
  in
  if total = 0 then None
  else match median 0 rows with Some k when k < until -> Some k | _ -> None

let handle (type r) t (req : r Message.req) : (r, Error.t) result Future.t =
  match req with
  | Message.Ping -> Future.return (Ok ())
  | Message.Storage_get { key; version; rv_epoch; may_bounce } -> (
      if backlogged t ~may_bounce then Future.return (Error Error.Process_behind)
      else
      let t0 = Engine.now () in
      let* () = Engine.cpu t.proc (Params.cpu Params.storage_per_point_read) in
      let* refused = admit t ~version ~epoch:rv_epoch ~from:key ~until:(Types.next_key key) in
      match refused with
      | Some e -> Future.return (Error e)
      | None ->
          Fdb_obs.Registry.incr t.obs_reads;
          Fdb_obs.Registry.observe t.obs_read_lat (Engine.now () -. t0);
          let value = Store.get t.store version key in
          note_read_traffic t key
            (String.length key + match value with Some v -> String.length v | None -> 0);
          Future.return (Ok value))
  | Message.Storage_get_range
      { gr_from; gr_until; gr_version; gr_limit; gr_byte_limit; gr_reverse; gr_epoch } -> (
      Fdb_obs.Registry.incr t.obs_range_reqs;
      (* Buggify: an occasional spurious shed exercises the client's
         replica-failover path under simulation. *)
      if backlogged t ~may_bounce:false || Buggify.on ~p:0.1 "ss_flaky_range" then
        Future.return (Error Error.Process_behind)
      else
      let t0 = Engine.now () in
      let* refused =
        admit t ~version:gr_version ~epoch:gr_epoch ~from:gr_from ~until:gr_until
      in
      match refused with
      | Some e -> Future.return (Error e)
      | None ->
          let rows, more =
            Store.read_range t.store gr_version ~from:gr_from ~until:gr_until ~reverse:gr_reverse
              ~limit:gr_limit ~byte_limit:gr_byte_limit
          in
          let* () =
            Engine.cpu t.proc
              (Params.cpu
                 (Params.storage_per_point_read
                 +. (Params.storage_per_range_key *. float_of_int (List.length rows))))
          in
          Fdb_obs.Registry.observe t.obs_read_lat (Engine.now () -. t0);
          note_read_traffic t gr_from
            (List.fold_left (fun a (k, v) -> a + String.length k + String.length v) 0 rows);
          Future.return (Ok { Message.rr_rows = rows; rr_more = more }))
  | Message.Ss_recover { sr_epoch; sr_rv; sr_history; sr_logs } ->
      adopt t ~epoch:sr_epoch ~rv:sr_rv ~history:sr_history ~logs:sr_logs;
      Future.return (Ok ())
  | Message.Ss_stats_req ->
      Future.return (Ok { Message.ss_durable = Store.durable t.store; ss_lag = lag_seconds t })
  | Message.Ss_fetch_shard { fs_from; fs_until; fs_version; fs_epoch; fs_sources } ->
      (* Buggify: an occasionally failing fetch exercises the DD's
         abort-and-retry path under simulation. *)
      if Buggify.on ~p:0.05 "dd_fetch_abort" then
        Future.return (Error (Error.Internal "buggified fetch abort"))
      else
        fetch_shard t ~from:fs_from ~until:fs_until ~version:fs_version ~epoch:fs_epoch
          ~sources:fs_sources
  | Message.Ss_split_point { spl_from; spl_until } ->
      let* () = Engine.cpu t.proc (Params.cpu Params.storage_per_point_read) in
      Future.return (Ok (split_point t ~from:spl_from ~until:spl_until))
  | Message.Ss_watch { w_key; w_version; w_epoch } ->
      (* Long-poll change notification (layer watches). Registration-time
         catch-up consults the window's per-key history, so a change that
         landed between the client's snapshot and this RPC — including one
         embodied while the shard moved to this server — fires immediately
         rather than being lost. *)
      Fdb_obs.Registry.incr t.obs_watch_reqs;
      let* current = ensure_epoch t w_epoch in
      if not current then Future.return (Error Error.Future_version)
      else if not (in_shards t w_key) then
        Future.return (Error Error.Wrong_shard)
      else if
        (w_version < Store.oldest t.store && Store.oldest t.store > 0L)
        || w_version < Store.floor_over t.store ~from:w_key ~until:(Types.next_key w_key)
      then
        (* The window cannot prove the key unchanged since [w_version]: the
           client treats this as a conservative wake and re-checks. *)
        Future.return (Error Error.Transaction_too_old)
      else begin
        match Store.last_change t.store w_key with
        | Some cv when cv > w_version ->
            Fdb_obs.Registry.incr t.obs_watch_fires;
            Trace.emit "ss_watch_catchup"
              [ ("ss", string_of_int t.id); ("key", String.escaped w_key);
                ("v", Int64.to_string cv) ];
            Future.return (Ok { Message.wr_fired = true; wr_version = cv })
        | _ ->
            t.watch_seq <- t.watch_seq + 1;
            let id = t.watch_seq in
            let fut, promise = Future.make () in
            let entry = { we_id = id; we_version = w_version; we_promise = promise } in
            Fdb_util.Det_tbl.replace t.watches w_key
              (match Fdb_util.Det_tbl.find_opt t.watches w_key with
              | Some l -> l @ [ entry ]
              | None -> [ entry ]);
            Trace.emit "ss_watch_register"
              [ ("ss", string_of_int t.id); ("key", String.escaped w_key) ];
            Future.catch
              (fun () ->
                let* v = Engine.timeout Params.watch_poll_timeout fut in
                Future.return (Ok { Message.wr_fired = true; wr_version = v }))
              (function
                | Engine.Timed_out ->
                    (* Poll window over: drop the registration (re-reading
                       the table — rule R5, the poll yielded) and resolve
                       the promise so nothing dangles. *)
                    (match Fdb_util.Det_tbl.find_opt t.watches w_key with
                    | Some l -> (
                        match List.filter (fun e -> e.we_id <> id) l with
                        | [] -> Fdb_util.Det_tbl.remove t.watches w_key
                        | l -> Fdb_util.Det_tbl.replace t.watches w_key l)
                    | None -> ());
                    ignore (Future.try_break promise Engine.Timed_out : bool);
                    if not (in_shards t w_key) then
                      (* The shard moved away mid-poll: a registration here
                         would never fire again — send the client back to
                         re-resolution. *)
                      Future.return (Error Error.Wrong_shard)
                    else
                      Future.return (Ok { Message.wr_fired = false; wr_version = t.version })
                | e -> Future.fail e)
      end
  | _ -> Future.return (Error (Error.Internal "storage: unexpected message"))

let rec create ctx proc ~id ~disk =
  let* store = Store.recover ~disk ~prefix:(Printf.sprintf "ss%d" id) in
  let start_version = Store.durable store in
  let metric kind name =
    kind ctx.Context.metrics ~role:Fdb_obs.Registry.Storage ~process:id name
  in
  let t =
    {
      ctx;
      proc;
      ep = ctx.Context.storage_eps.(id);
      id;
      store;
      version = start_version;
      kcv = start_version;
      epoch = 0;
      logs = [];
      waiters = [];
      stale_pulls = 0;
      peek = None;
      refreshing = Future.flight ();
      blind_atomics = [];
      fetches_in_flight = 0;
      stats_ticks = 0;
      obs_read_lat = metric Fdb_obs.Registry.histogram "read_latency";
      obs_reads = metric Fdb_obs.Registry.counter "reads";
      obs_lag = metric Fdb_obs.Registry.gauge "lag";
      obs_window = metric Fdb_obs.Registry.gauge "window_events";
      obs_busy = metric Fdb_obs.Registry.gauge "busy";
      obs_version = metric Fdb_obs.Registry.gauge "version";
      obs_durable = metric Fdb_obs.Registry.gauge "durable_version";
      obs_heartbeat = metric Fdb_obs.Registry.gauge "heartbeat";
      shard_read_ctrs = Fdb_util.Det_tbl.create ~size:32 ();
      shard_write_ctrs = Fdb_util.Det_tbl.create ~size:32 ();
      shard_size_gauges = Fdb_util.Det_tbl.create ~size:32 ();
      watch_seq = 0;
      watches = Fdb_util.Det_tbl.create ~size:16 ();
      obs_range_reqs = metric Fdb_obs.Registry.counter "range_requests";
      obs_watch_reqs = metric Fdb_obs.Registry.counter "watch_requests";
      obs_watch_fires = metric Fdb_obs.Registry.counter "watch_fires";
    }
  in
  publish_stats t;
  Disk.attach disk proc;
  Context.serve ctx t.ep proc { handle = (fun req -> handle t req) };
  Engine.spawn ~process:proc "ss-pull" (fun () -> pull_loop t);
  Engine.spawn ~process:proc "ss-durable" (fun () -> durable_loop t);
  Engine.spawn ~process:proc "ss-stats" (fun () -> stats_loop t);
  proc.Process.boot <-
    (fun () ->
      Engine.spawn ~process:proc "ss-reboot" (fun () ->
          let* _t = create ctx proc ~id ~disk in
          Future.return ()));
  Future.return t
