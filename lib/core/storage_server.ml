open Fdb_sim
open Future.Syntax
module Mutation = Fdb_kv.Mutation
module Window = Fdb_kv.Version_window
module Pstore = Fdb_kv.Persistent_store

let version_meta_key = "\xff\xff/ss/version"

(* One marker per range this server fetched as a move destination, persisted
   above [system_key_space_end] (never served, never clipped by shard
   filters). Key: prefix ^ lo; value: fetch version (8 bytes) ^ hi. *)
let movein_prefix = "\xff\xff/ss/movein/"
let movein_key lo = movein_prefix ^ lo

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
  disk : Disk.t;
  pstore : Pstore.t;
  window : Window.t;
  mutable version : Types.version; (* caught up through this version *)
  mutable durable : Types.version;
  mutable kcv : Types.version; (* durability floor learned from logs *)
  mutable epoch : Types.epoch;
  mutable logs : (int * int) list;
  mutable waiters : (Types.version * unit Future.promise) list;
  mutable stale_pulls : int; (* consecutive failed peeks *)
  mutable peek : Message.t Future.promise option;
      (* the in-flight peek's reply, which adopting a newer generation
         breaks: that peek went to the old generation's logs *)
  mutable refreshing : bool; (* single-flight coordinator consultation *)
  mutable alive : bool;
  mutable incoming : (string * string * Types.version) list;
      (* ranges fetched as a move destination, with the snapshot version
         [since] the fetched pstore image embodies. Window events at
         versions <= since are invisible for these keys, reads below since
         are Transaction_too_old, and durability passes skip re-applying
         popped mutations <= since. *)
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

let hex_of_key k =
  String.concat "" (List.init (String.length k) (fun i -> Printf.sprintf "%02x" (Char.code k.[i])))

let version t = t.version
let durable_version t = t.durable
let window_events t = Window.event_count t.window

let time_version () = Int64.of_float (Engine.now () *. Types.versions_per_second)

let lag_seconds t =
  let lag = Int64.to_float (Int64.sub (time_version ()) t.version) /. Types.versions_per_second in
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

let in_shards t key =
  List.exists (fun (lo, hi) -> lo <= key && key < hi) (served_shards t)

let in_applied_shards t key =
  List.exists (fun (lo, hi) -> lo <= key && key < hi) (applied_shards t)

(* Does this server serve the whole [from, until)? Client sub-reads are
   per-shard fragments, so a single served range must cover it. *)
let covers t ~from ~until =
  from >= until
  || List.exists (fun (lo, hi) -> lo <= from && until <= hi) (served_shards t)

let clip_to_shards t ~from ~until =
  List.filter_map
    (fun (lo, hi) ->
      let f = if from > lo then from else lo in
      let u = if until < hi then until else hi in
      if f < u then Some (f, u) else None)
    (applied_shards t)

(* Snapshot floor for a key inside a fetched range: the pstore image already
   embodies every mutation <= the floor. *)
let incoming_floor t key =
  List.fold_left
    (fun acc (lo, hi, since) -> if lo <= key && key < hi && since > acc then since else acc)
    Int64.min_int t.incoming

let incoming_floor_range t ~from ~until =
  List.fold_left
    (fun acc (lo, hi, since) -> if lo < until && from < hi && since > acc then since else acc)
    Int64.min_int t.incoming

(* Value visible at [v] while applying version [v] itself: within one
   commit version, later mutations must observe earlier ones (atomic ops
   stack), so the probe version is the version being applied. *)
let read_for_apply t v key =
  match Window.read ~floor:(incoming_floor t key) t.window v key with
  | Window.Value value -> Some value
  | Window.Cleared -> None
  | Window.Unknown -> Pstore.get t.pstore key

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
  let concrete =
    match m with
    | Mutation.Atomic (kind, key, operand) -> (
        let old_value = read_for_apply t v key in
        match Mutation.atomic_result kind ~old_value operand with
        | Some value -> Mutation.Set (key, value)
        | None -> Mutation.Clear key)
    | m -> m
  in
  Window.apply t.window v concrete;
  notify_watches t v concrete

(* ---------- per-shard traffic accounting (DD's rebalancing signal) ---------- *)

let shard_lo t key = fst (Shard_map.shard_range_for_key t.ctx.Context.shard_map key)

let shard_counter t cache stem lo =
  Fdb_util.Det_tbl.find_or_add cache lo (fun () ->
      Fdb_obs.Registry.counter t.ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
        ~process:t.id
        (Printf.sprintf "%s:%s" stem (hex_of_key lo)))

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
      else t.durable
    in
    let target = max boundary t.durable in
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
      let dropped = Window.rollback t.window ~after:target in
      Trace.emit "ss_rollback"
        [ ("ss", string_of_int t.id); ("rv", Int64.to_string target);
          ("dropped", string_of_int dropped) ];
      t.version <- target
    end;
    t.stale_pulls <- 0
  end
  else if epoch = t.epoch then t.logs <- logs

(* When peeks keep failing, consult the coordinators for a newer
   transaction-system generation (the fallback path behind Ss_recover). *)
let refresh_from_coordinators t =
  if t.refreshing then Engine.sleep 0.1
  else begin
  t.refreshing <- true;
  Future.protect ~finally:(fun () -> t.refreshing <- false) @@ fun () ->
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
  end

let pull_once t =
  match preferred_log t with
  | None -> refresh_from_coordinators t
  | Some log_ep ->
      let as_of_epoch = t.epoch in
      (* Unlabeled: the peek's own timeout guarantees the resolution. *)
      let reply, deliver = Future.make () in
      Future.on_resolve
        (Context.rpc t.ctx ~timeout:1.0 ~from:t.proc log_ep
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
          let* reply = reply in
          match reply with
          | Message.Log_peek_reply { pk_entries; pk_end; pk_kcv } ->
              t.stale_pulls <- 0;
              (* fdb-lint: allow R5 -- deliberate pre-RPC snapshot: entries apply under the epoch in force when the peek was issued (Wrong_epoch protocol) *)
              apply_entries t ~as_of_epoch pk_entries pk_end pk_kcv
          | _ -> Future.return ())
        (function
          | Future.Cancelled _ ->
              (* [adopt] abandoned the peek: pull from the new logs now. *)
              Future.return ()
          | Error.Fdb Error.Wrong_epoch ->
              (* The log server is locked: a recovery is in flight. *)
              t.stale_pulls <- t.stale_pulls + 1;
              refresh_from_coordinators t
          | exn ->
              Trace.emit "ss_pull_fail"
                [ ("ss", string_of_int t.id); ("exn", Printexc.to_string exn) ];
              t.stale_pulls <- t.stale_pulls + 1;
              if t.stale_pulls > 3 then refresh_from_coordinators t
              else Future.return ())

let pull_loop t =
  let rec loop () =
    if not t.alive then Future.return ()
    else
      (* Buggify: a sluggish pull loop widens the lag/rollback windows. *)
      let* () =
        Engine.sleep
          (Params.storage_peek_interval +. (Buggify.delay ~p:0.02 "ss_slow_peek" /. 5.0))
      in
      let* () = pull_once t in
      loop ()
  in
  loop ()

(* ---------- metrics publication (the shared metrics plane) ---------- *)

(* The Ratekeeper and the Status workload read these gauges instead of
   issuing a stats RPC scatter; the heartbeat gauge doubles as a liveness
   signal (a dead process stops publishing). *)
let publish_stats t =
  let busy = t.proc.Process.cpu_busy_until -. Engine.now () in
  Fdb_obs.Registry.set_gauge t.obs_lag (lag_seconds t);
  Fdb_obs.Registry.set_gauge t.obs_window (float_of_int (Window.event_count t.window));
  Fdb_obs.Registry.set_gauge t.obs_busy (if busy > 0.0 then busy else 0.0);
  Fdb_obs.Registry.set_gauge t.obs_version (Int64.to_float t.version);
  Fdb_obs.Registry.set_gauge t.obs_durable (Int64.to_float t.durable);
  Fdb_obs.Registry.set_gauge t.obs_heartbeat (Engine.now ())

(* Per-shard persistent size: a pstore range scan, so only refreshed every
   8th stats tick (~2 s) — cheap enough, fresh enough for DD split/merge
   decisions. *)
let publish_shard_sizes t =
  List.iter
    (fun (lo, hi) ->
      let bytes =
        List.fold_left
          (fun a (k, v) -> a + String.length k + String.length v)
          0
          (Pstore.get_range t.pstore ~from:lo ~until:hi ())
      in
      let g =
        Fdb_util.Det_tbl.find_or_add t.shard_size_gauges lo (fun () ->
            Fdb_obs.Registry.gauge t.ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
              ~process:t.id
              (Printf.sprintf "shard_size_bytes:%s" (hex_of_key lo)))
      in
      Fdb_obs.Registry.set_gauge g (float_of_int bytes))
    (served_shards t)

let stats_loop t =
  let rec loop () =
    if not t.alive then Future.return ()
    else
      let* () = Engine.sleep Params.heartbeat_interval in
      publish_stats t;
      t.stats_ticks <- t.stats_ticks + 1;
      if t.stats_ticks mod 8 = 0 then publish_shard_sizes t;
      loop ()
  in
  loop ()

(* ---------- durability (§2.4.3: delayed, coalesced persistence) ---------- *)

(* Subtract [lo, hi) from a segment, yielding the surviving pieces. *)
let subtract_range (f, u) (lo, hi) =
  if hi <= f || u <= lo then [ (f, u) ]
  else (if f < lo then [ (f, lo) ] else []) @ if u > hi then [ (hi, u) ] else []

(* A popped mutation at a version already embodied in a fetched snapshot
   must not be re-applied to the pstore: it could be a *stale* value (the
   snapshot was taken later) and would corrupt the fetched image. *)
let durable_filter t (v, (m : Mutation.t)) =
  match m with
  | Mutation.Set (k, _) | Mutation.Clear k -> if v <= incoming_floor t k then [] else [ m ]
  | Mutation.Clear_range (a, b) ->
      List.fold_left
        (fun segs (lo, hi, since) ->
          if since < v then segs
          else List.concat_map (fun seg -> subtract_range seg (lo, hi)) segs)
        [ (a, b) ] t.incoming
      |> List.map (fun (f, u) -> Mutation.Clear_range (f, u))
  | Mutation.Atomic _ -> [ m ]

let make_durable t =
  let window_versions =
    Int64.of_float (t.ctx.Context.config.Config.mvcc_window *. Types.versions_per_second)
  in
  let target =
    min t.kcv (Int64.sub t.version window_versions)
  in
  if t.fetches_in_flight > 0 then Future.return ()
  else if target > t.durable then begin
    let muts =
      List.concat_map (durable_filter t) (Window.pop_through_versioned t.window target)
    in
    (* Snapshot floors at or below the new durable horizon are spent: every
       stale window event has been popped (and filtered) above, and reads
       below them are already rejected by the Window.oldest gate. Drop the
       persisted markers along with the in-memory entries. *)
    let retired, keep = List.partition (fun (_, _, since) -> since <= target) t.incoming in
    t.incoming <- keep;
    let clears = List.map (fun (lo, _, _) -> Mutation.Clear (movein_key lo)) retired in
    let marker = Mutation.Set (version_meta_key, Types.version_to_bytes target) in
    let* () = Pstore.apply t.pstore (muts @ clears @ [ marker ]) in
    let* () = Pstore.commit t.pstore in
    (* Monotone re-read after the pstore yields (rule R5): never regress a
       durable horizon a concurrent pass already advanced. *)
    if target > t.durable then t.durable <- target;
    (* Tell the logs this data no longer needs them. *)
    List.iter
      (fun (_, ep) ->
        Network.send t.ctx.Context.net ~from:t.proc ep
          (Message.Log_pop { tag = t.id; up_to = target }))
      t.logs;
    Future.return ()
  end
  else Future.return ()

let durable_loop t =
  let rec loop () =
    if not t.alive then Future.return ()
    else
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

let read_at t version key =
  match Window.read ~floor:(incoming_floor t key) t.window version key with
  | Window.Value v -> Some v
  | Window.Cleared -> None
  | Window.Unknown -> Pstore.get t.pstore key

(* Merge the persistent image and the window overlay for a range read.
   Forward scan with chunked persistent reads; candidate keys come from
   both sources, visibility is decided per key at [version]. Stops at the
   row or byte budget (always returning at least one row when any is
   visible); [more = true] reports a budget cut, so the caller knows to
   drain the rest with a continuation round-trip. *)
let range_read t version ~from ~until ~limit ~byte_limit =
  let limit = min limit 10_000_000 in
  let chunk_size = min limit 10_000 + 16 in
  let out = ref [] in
  let count = ref 0 in
  let bytes = ref 0 in
  let cursor = ref from in
  let continue = ref true in
  let more = ref false in
  while !continue && !count < limit && !bytes < byte_limit && !cursor < until do
    let chunk = Pstore.get_range t.pstore ~limit:chunk_size ~from:!cursor ~until () in
    (* This pass covers [cursor, pass_until): either the whole remaining
       range (chunk exhausted the store) or up to the chunk's last key. *)
    let pass_until =
      if List.length chunk < chunk_size then until
      else Types.next_key (fst (List.nth chunk (List.length chunk - 1)))
    in
    let window_keys =
      Window.keys_in_range t.window ~from:!cursor ~until:pass_until
      |> List.filter (fun k -> not (List.mem_assoc k chunk))
    in
    let candidates = List.sort_uniq compare (List.map fst chunk @ window_keys) in
    List.iter
      (fun k ->
        if !count >= limit || !bytes >= byte_limit then more := true
        else
          match read_at t version k with
          | Some v ->
              out := (k, v) :: !out;
              incr count;
              bytes := !bytes + String.length k + String.length v
          | None -> ())
      candidates;
    cursor := pass_until;
    if pass_until >= until then continue := false
  done;
  if !continue && !cursor < until then more := true;
  (List.rev !out, !more)

let range_read_reverse t version ~from ~until ~limit ~byte_limit =
  let out = ref [] in
  let count = ref 0 in
  let bytes = ref 0 in
  let cursor = ref until in
  let window_keys =
    Window.keys_in_range t.window ~from ~until |> List.sort compare |> List.rev
  in
  let wk = ref window_keys in
  let continue = ref true in
  while !continue && !count < limit && !bytes < byte_limit do
    let p = Pstore.prev_entry t.pstore ~before:!cursor in
    let pk = match p with Some (k, _) when k >= from -> Some k | _ -> None in
    let wkey = match !wk with k :: _ when k < !cursor -> Some k | _ -> None in
    match (pk, wkey) with
    | None, None -> continue := false
    | _ ->
        let k =
          match (pk, wkey) with
          | Some a, Some b -> if a > b then a else b
          | Some a, None -> a
          | None, Some b -> b
          | None, None -> assert false
        in
        (match read_at t version k with
        | Some v ->
            out := (k, v) :: !out;
            incr count;
            bytes := !bytes + String.length k + String.length v
        | None -> ());
        cursor := k;
        wk := List.filter (fun x -> x < k) !wk
  done;
  (* [continue] still true here means a budget stop with candidates
     possibly remaining below the cursor. *)
  (List.rev !out, !continue)

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

(* Load shedding: a read queued behind more CPU work than the client's
   timeout would burn a core for an answer nobody is waiting for — reject
   it cheaply instead (the spiral breaker real storage servers have). *)
let overloaded t =
  t.proc.Process.cpu_busy_until -. Engine.now () > Params.client_read_timeout

(* ---------- shard movement: destination-side fetch (§2.5) ---------- *)

(* Drain a committed snapshot of [from, until) at [version] from the current
   team, install it in the pstore under a [movein] floor, and ack. The DD
   has already begun the move, so our own tLog tag carries every mutation
   above [version] for the range — the floor makes window entries at or
   below it invisible (the snapshot embodies them) and the durable path
   skips re-applying them. *)
let fetch_shard t ~from ~until ~version ~epoch ~sources =
  let srcs = Array.of_list (List.filter (fun ss -> ss <> t.id) sources) in
  if Array.length srcs = 0 then
    Future.return (Message.Reject (Error.Internal "fetch: no source replica"))
  else if t.durable > version then
    (* Our durable horizon already passed the snapshot version: data above
       it is in the pstore and would be wiped by the install. *)
    Future.return (Message.Reject (Error.Internal "fetch: snapshot below durable horizon"))
  else begin
    t.fetches_in_flight <- t.fetches_in_flight + 1;
    Future.protect
      ~finally:(fun () -> t.fetches_in_flight <- t.fetches_in_flight - 1)
      (fun () ->
        let rec drain attempt cursor acc rows bytes =
          if attempt > 3 * Array.length srcs then Future.return None
          else begin
            let src = srcs.(attempt mod Array.length srcs) in
            let retry () =
              let* () = Engine.sleep 0.2 in
              drain (attempt + 1) cursor acc rows bytes
            in
            Future.catch
              (fun () ->
                let* reply =
                  Context.rpc t.ctx ~timeout:2.0 ~from:t.proc
                    t.ctx.Context.storage_eps.(src)
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
                match reply with
                | Message.Storage_get_range_reply { rr_rows; rr_more } ->
                    let bytes =
                      List.fold_left
                        (fun a (k, v) -> a + String.length k + String.length v)
                        bytes rr_rows
                    in
                    let rows = rows + List.length rr_rows in
                    if rr_more && rr_rows <> [] then
                      let last = fst (List.nth rr_rows (List.length rr_rows - 1)) in
                      drain attempt (Types.next_key last) (rr_rows :: acc) rows bytes
                    else Future.return (Some (List.concat (List.rev (rr_rows :: acc)), rows, bytes))
                | _ -> retry ())
              (fun _ -> retry ())
          end
        in
        let* fetched = drain 0 from [] 0 0 in
        match fetched with
        | None -> Future.return (Message.Reject (Error.Internal "fetch: no source answered"))
        | Some (kvs, rows, bytes) ->
            let* () =
              Engine.cpu t.proc
                (Params.cpu (Params.storage_per_apply_byte *. float_of_int bytes))
            in
            if t.durable > version then
              Future.return
                (Message.Reject (Error.Internal "fetch: snapshot below durable horizon"))
            else begin
              (* Floor registration and the pstore install are synchronous
                 with each other (no yield between them), so no durability
                 pass can interleave a pop. *)
              t.incoming <-
                (from, until, version)
                :: List.filter (fun (lo, hi, _) -> not (lo = from && hi = until)) t.incoming;
              let muts =
                (Mutation.Clear_range (from, until)
                :: List.map (fun (k, v) -> Mutation.Set (k, v)) kvs)
                @ [ Mutation.Set (movein_key from, Types.version_to_bytes version ^ until) ]
              in
              let* () = Pstore.apply t.pstore muts in
              let* () = Pstore.commit t.pstore in
              Trace.emit "ss_shard_fetched"
                [ ("ss", string_of_int t.id); ("lo", String.escaped from);
                  ("rows", string_of_int rows);
                  ("since", Int64.to_string version) ];
              Future.return (Message.Ss_fetch_ack { fa_rows = rows; fa_bytes = bytes })
            end)
  end

(* Median-by-bytes key of a range (DD's organic split point). *)
let split_point t ~from ~until =
  let rows = Pstore.get_range t.pstore ~from ~until () in
  let total = List.fold_left (fun a (k, v) -> a + String.length k + String.length v) 0 rows in
  let acc = ref 0 and found = ref None in
  if total > 0 then
    List.iter
      (fun (k, v) ->
        if !found = None then begin
          if !acc * 2 >= total && k > from then found := Some k;
          acc := !acc + String.length k + String.length v
        end)
      rows;
  match !found with Some k when k > from && k < until -> Some k | _ -> None

let handle t (msg : Message.t) : Message.t Future.t =
  match msg with
  | Message.Seq_ping -> Future.return Message.Ok_reply
  | Message.Storage_get { key; version; rv_epoch } ->
      if overloaded t then Future.return (Message.Reject Error.Process_behind)
      else
      let t0 = Engine.now () in
      let* () = Engine.cpu t.proc (Params.cpu Params.storage_per_point_read) in
      let* current = ensure_epoch t rv_epoch in
      let* ok = if current then wait_for_version t version else Future.return false in
      if not (current && ok) then Future.return (Message.Reject Error.Future_version)
      else if version < Window.oldest t.window && Window.oldest t.window > 0L then begin
        Trace.emit "ss_too_old"
          [ ("ss", string_of_int t.id); ("rv", Int64.to_string version);
            ("oldest", Int64.to_string (Window.oldest t.window));
            ("version", Int64.to_string t.version);
            ("kcv", Int64.to_string t.kcv);
            ("durable", Int64.to_string t.durable) ];
        Future.return (Message.Reject Error.Transaction_too_old)
      end
      else if not (in_shards t key) then
        Future.return (Message.Reject Error.Wrong_shard)
      else if version < incoming_floor t key then
        (* The key arrived here by shard movement and the fetched snapshot
           cannot reconstruct state below its version: retryable. *)
        Future.return (Message.Reject Error.Transaction_too_old)
      else begin
        Fdb_obs.Registry.incr t.obs_reads;
        Fdb_obs.Registry.observe t.obs_read_lat (Engine.now () -. t0);
        let value = read_at t version key in
        note_read_traffic t key
          (String.length key + match value with Some v -> String.length v | None -> 0);
        Future.return (Message.Storage_get_reply value)
      end
  | Message.Storage_get_range
      { gr_from; gr_until; gr_version; gr_limit; gr_byte_limit; gr_reverse; gr_epoch } ->
      Fdb_obs.Registry.incr t.obs_range_reqs;
      if overloaded t then Future.return (Message.Reject Error.Process_behind)
      else if
        (* Buggify: an occasional spurious shed exercises the client's
           replica-failover path under simulation. *)
        Buggify.on ~p:0.1 "ss_flaky_range"
      then Future.return (Message.Reject Error.Process_behind)
      else
      let* current = ensure_epoch t gr_epoch in
      let* ok = if current then wait_for_version t gr_version else Future.return false in
      if not (current && ok) then Future.return (Message.Reject Error.Future_version)
      else if gr_version < Window.oldest t.window && Window.oldest t.window > 0L then
        Future.return (Message.Reject Error.Transaction_too_old)
      else if not (covers t ~from:gr_from ~until:gr_until) then
        Future.return (Message.Reject Error.Wrong_shard)
      else if gr_version < incoming_floor_range t ~from:gr_from ~until:gr_until then
        Future.return (Message.Reject Error.Transaction_too_old)
      else begin
        let results, more =
          if gr_reverse then
            range_read_reverse t gr_version ~from:gr_from ~until:gr_until ~limit:gr_limit
              ~byte_limit:gr_byte_limit
          else
            range_read t gr_version ~from:gr_from ~until:gr_until ~limit:gr_limit
              ~byte_limit:gr_byte_limit
        in
        let* () =
          Engine.cpu t.proc
            (Params.cpu
               (Params.storage_per_point_read
               +. (Params.storage_per_range_key *. float_of_int (List.length results))))
        in
        note_read_traffic t gr_from
          (List.fold_left (fun a (k, v) -> a + String.length k + String.length v) 0 results);
        Future.return (Message.Storage_get_range_reply { rr_rows = results; rr_more = more })
      end
  | Message.Storage_get_key
      { gk_from; gk_until; gk_reverse; gk_start; gk_need; gk_version; gk_epoch } ->
      (* Key-selector resolution (paper §2.2): walk gk_need visible keys at
         the read version, inside one served fragment. Resolution runs
         against the same MVCC window + persistent-store merge as range
         reads, so a selector observes exactly the snapshot it should. *)
      if overloaded t then Future.return (Message.Reject Error.Process_behind)
      else if Buggify.on ~p:0.1 "ss_flaky_range" then
        Future.return (Message.Reject Error.Process_behind)
      else
      let* current = ensure_epoch t gk_epoch in
      let* ok = if current then wait_for_version t gk_version else Future.return false in
      if not (current && ok) then Future.return (Message.Reject Error.Future_version)
      else if gk_version < Window.oldest t.window && Window.oldest t.window > 0L then
        Future.return (Message.Reject Error.Transaction_too_old)
      else if not (covers t ~from:gk_from ~until:gk_until) then
        Future.return (Message.Reject Error.Wrong_shard)
      else if gk_version < incoming_floor_range t ~from:gk_from ~until:gk_until then
        Future.return (Message.Reject Error.Transaction_too_old)
      else begin
        let need = max 1 gk_need in
        let rows, _ =
          if gk_reverse then
            let until = if gk_start < gk_until then gk_start else gk_until in
            range_read_reverse t gk_version ~from:gk_from ~until ~limit:need
              ~byte_limit:max_int
          else
            let from = if gk_start > gk_from then gk_start else gk_from in
            range_read t gk_version ~from ~until:gk_until ~limit:need ~byte_limit:max_int
        in
        let* () =
          Engine.cpu t.proc
            (Params.cpu
               (Params.storage_per_point_read
               +. (Params.storage_per_range_key *. float_of_int (List.length rows))))
        in
        let seen = List.length rows in
        if seen >= need then
          Future.return
            (Message.Storage_get_key_reply
               { kr_key = Some (fst (List.nth rows (need - 1))); kr_seen = seen })
        else Future.return (Message.Storage_get_key_reply { kr_key = None; kr_seen = seen })
      end
  | Message.Ss_recover { sr_epoch; sr_rv; sr_history; sr_logs } ->
      adopt t ~epoch:sr_epoch ~rv:sr_rv ~history:sr_history ~logs:sr_logs;
      Future.return (Message.Ss_recover_ack { version = t.version })
  | Message.Ss_stats_req ->
      let busy = t.proc.Process.cpu_busy_until -. Engine.now () in
      Future.return
        (Message.Ss_stats
           {
             ss_version = t.version;
             ss_durable = t.durable;
             ss_window_events = Window.event_count t.window;
             ss_lag = lag_seconds t;
             ss_busy = (if busy > 0.0 then busy else 0.0);
           })
  | Message.Ss_fetch_shard { fs_from; fs_until; fs_version; fs_epoch; fs_sources } ->
      (* Buggify: an occasionally failing fetch exercises the DD's
         abort-and-retry path under simulation. *)
      if Buggify.on ~p:0.05 "dd_fetch_abort" then
        Future.return (Message.Reject (Error.Internal "buggified fetch abort"))
      else
        fetch_shard t ~from:fs_from ~until:fs_until ~version:fs_version ~epoch:fs_epoch
          ~sources:fs_sources
  | Message.Ss_split_point { spl_from; spl_until } ->
      let* () = Engine.cpu t.proc (Params.cpu Params.storage_per_point_read) in
      Future.return (Message.Ss_split_point_reply { spl_key = split_point t ~from:spl_from ~until:spl_until })
  | Message.Ss_watch { w_key; w_version; w_epoch } ->
      (* Long-poll change notification (layer watches). Registration-time
         catch-up consults the window's per-key history, so a change that
         landed between the client's snapshot and this RPC — including one
         embodied while the shard moved to this server — fires immediately
         rather than being lost. *)
      Fdb_obs.Registry.incr t.obs_watch_reqs;
      let* current = ensure_epoch t w_epoch in
      if not current then Future.return (Message.Reject Error.Future_version)
      else if not (in_shards t w_key) then
        Future.return (Message.Reject Error.Wrong_shard)
      else if
        (w_version < Window.oldest t.window && Window.oldest t.window > 0L)
        || w_version < incoming_floor t w_key
      then
        (* The window cannot prove the key unchanged since [w_version]: the
           client treats this as a conservative wake and re-checks. *)
        Future.return (Message.Reject Error.Transaction_too_old)
      else begin
        match Window.last_change ~floor:(incoming_floor t w_key) t.window w_key with
        | Some cv when cv > w_version ->
            Fdb_obs.Registry.incr t.obs_watch_fires;
            Trace.emit "ss_watch_catchup"
              [ ("ss", string_of_int t.id); ("key", String.escaped w_key);
                ("v", Int64.to_string cv) ];
            Future.return (Message.Ss_watch_reply { wr_fired = true; wr_version = cv })
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
                Future.return (Message.Ss_watch_reply { wr_fired = true; wr_version = v }))
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
                      Future.return (Message.Reject Error.Wrong_shard)
                    else
                      Future.return
                        (Message.Ss_watch_reply
                           { wr_fired = false; wr_version = t.version })
                | e -> Future.fail e)
      end
  | _ -> Future.return (Message.Reject (Error.Internal "storage: unexpected message"))

let rec create ctx proc ~id ~disk =
  let* pstore = Pstore.recover ~disk ~prefix:(Printf.sprintf "ss%d" id) () in
  let start_version =
    match Pstore.get pstore version_meta_key with
    | Some bytes -> Types.version_of_bytes bytes
    | None -> 0L
  in
  (* Reload snapshot floors for ranges fetched as a move destination: after
     a reboot the log replays from the durable version, which may sit below
     a fetched snapshot — replayed mutations at or below the floor must stay
     invisible/unapplied exactly as before the crash. *)
  let incoming =
    Pstore.get_range pstore ~from:movein_prefix ~until:(Types.strinc movein_prefix) ()
    |> List.filter_map (fun (k, v) ->
           if String.length v < 8 then None
           else begin
             let lo = String.sub k (String.length movein_prefix) (String.length k - String.length movein_prefix) in
             let since = Types.version_of_bytes (String.sub v 0 8) in
             let hi = String.sub v 8 (String.length v - 8) in
             Some (lo, hi, since)
           end)
  in
  let t =
    {
      ctx;
      proc;
      ep = ctx.Context.storage_eps.(id);
      id;
      disk;
      pstore;
      window = Window.create ~initial_version:start_version ();
      version = start_version;
      durable = start_version;
      kcv = start_version;
      epoch = 0;
      logs = [];
      waiters = [];
      stale_pulls = 0;
      peek = None;
      refreshing = false;
      alive = true;
      incoming;
      fetches_in_flight = 0;
      stats_ticks = 0;
      obs_read_lat =
        Fdb_obs.Registry.histogram ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
          ~process:id "read_latency";
      obs_reads =
        Fdb_obs.Registry.counter ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
          ~process:id "reads";
      obs_lag =
        Fdb_obs.Registry.gauge ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
          ~process:id "lag";
      obs_window =
        Fdb_obs.Registry.gauge ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
          ~process:id "window_events";
      obs_busy =
        Fdb_obs.Registry.gauge ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
          ~process:id "busy";
      obs_version =
        Fdb_obs.Registry.gauge ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
          ~process:id "version";
      obs_durable =
        Fdb_obs.Registry.gauge ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
          ~process:id "durable_version";
      obs_heartbeat =
        Fdb_obs.Registry.gauge ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
          ~process:id "heartbeat";
      shard_read_ctrs = Fdb_util.Det_tbl.create ~size:32 ();
      shard_write_ctrs = Fdb_util.Det_tbl.create ~size:32 ();
      shard_size_gauges = Fdb_util.Det_tbl.create ~size:32 ();
      watch_seq = 0;
      watches = Fdb_util.Det_tbl.create ~size:16 ();
      obs_range_reqs =
        Fdb_obs.Registry.counter ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
          ~process:id "range_requests";
      obs_watch_reqs =
        Fdb_obs.Registry.counter ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
          ~process:id "watch_requests";
      obs_watch_fires =
        Fdb_obs.Registry.counter ctx.Context.metrics ~role:Fdb_obs.Registry.Storage
          ~process:id "watch_fires";
    }
  in
  publish_stats t;
  Disk.attach disk proc;
  Network.register ctx.Context.net t.ep proc (handle t);
  Engine.spawn ~process:proc "ss-pull" (fun () -> pull_loop t);
  Engine.spawn ~process:proc "ss-durable" (fun () -> durable_loop t);
  Engine.spawn ~process:proc "ss-stats" (fun () -> stats_loop t);
  proc.Process.boot <-
    (fun () ->
      Engine.spawn ~process:proc "ss-reboot" (fun () ->
          let* _t = create ctx proc ~id ~disk in
          Future.return ()));
  Future.return t
