open Fdb_sim
open Future.Syntax
module Mutation = Fdb_kv.Mutation
module KeyMap = Map.Make (String)
module Rng = Fdb_util.Det_rng

(* ---------- key selectors ---------- *)

module Key_selector = struct
  type t = Message.key_selector = {
    sel_key : string;
    sel_or_equal : bool;
    sel_offset : int;
  }

  (* The four canonical constructors, with the standard FDB encodings. *)
  let first_greater_or_equal ?(offset = 0) key =
    { sel_key = key; sel_or_equal = false; sel_offset = 1 + offset }

  let first_greater_than ?(offset = 0) key =
    { sel_key = key; sel_or_equal = true; sel_offset = 1 + offset }

  let last_less_or_equal ?(offset = 0) key =
    { sel_key = key; sel_or_equal = true; sel_offset = offset }

  let last_less_than ?(offset = 0) key =
    { sel_key = key; sel_or_equal = false; sel_offset = offset }
end

type tx_options = {
  opt_timeout : float option;
  opt_max_read_bytes : int option;
}

let default_options =
  { opt_timeout = None; opt_max_read_bytes = None }

type db = {
  ctx : Context.t;
  proc : Process.t;
  rng : Rng.t;
  mutable proxies : int array;
  mutable epoch : Types.epoch; (* the generation [proxies] belong to; 0 before any *)
  polling : int option Future.flight; (* the poll on the ClusterController *)
  inflight : int array; (* this handle's storage requests in flight, by server id *)
  obs_fanout : Fdb_obs.Registry.gauge;
  obs_range_bytes : Fdb_obs.Registry.gauge;
  obs_failovers : Fdb_obs.Registry.counter;
  obs_retry_delay : Fdb_obs.Registry.timer;
  obs_replica_busy : Fdb_obs.Registry.counter;
  obs_bounces : Fdb_obs.Registry.counter;
  obs_stale_calls : Fdb_obs.Registry.counter;
}

let versionstamp_placeholder = String.make 10 '\x00'

(* Find the ClusterController's machine through the coordinators. *)
let find_cc db =
  let transport = Context.paxos_transport db.ctx ~from:db.proc in
  let+ leader =
    Future.catch
      (fun () ->
        Fdb_paxos.Election.leader_via transport ~reg:"cc-leader"
          ~proposer:(Context.proposer_id db.proc))
      (fun _ -> Future.return None)
  in
  match Option.bind leader int_of_string_opt with
  | Some machine when machine < Array.length db.ctx.Context.worker_eps -> Some machine
  | _ -> None

(* One poll of the ClusterController on machine [cc], found through the
   coordinators when [None]. The CC holds it until it knows a recovered
   generation other than this handle's, or for a heartbeat interval. The
   answer's proxies are adopted before the poll resolves, with the CC to
   poll next. A poll that reaches no CC (none is named, or the call
   failed) resolves [None] after a 0.1 s pause, so its callers do not spin
   on the coordinators while they name no live CC. A caller that finds a
   poll in flight gets that poll's future. *)
let poll db cc =
  Future.single_flight db.polling (fun () ->
      let* cc = match cc with Some _ -> Future.return cc | None -> find_cc db in
      let* answered =
        match cc with
        | None -> Future.return false
        | Some machine ->
            Future.catch
              (fun () ->
                let+ { Message.st_epoch; st_proxies; st_recovered; _ } =
                  Context.wait_failure db.ctx ~from:db.proc db.ctx.Context.worker_eps.(machine)
                    (Message.Cc_get_state { cg_known = db.epoch })
                in
                if st_recovered && st_epoch <> db.epoch then begin
                  db.epoch <- st_epoch;
                  db.proxies <- Array.of_list st_proxies
                end;
                true)
              (fun _ -> Future.return false)
      in
      if answered then Future.return cc
      else
        let+ () = Engine.sleep 0.1 in
        None)

(* The handle's one held poll, re-sent the moment it is answered, for as
   long as the handle's process lives. *)
let rec watch_cc db cc =
  let* next = poll db cc in
  watch_cc db next

let create_db ctx proc =
  let metrics = ctx.Context.metrics in
  let pid = proc.Process.pid in
  let role = Fdb_obs.Registry.Client in
  let db =
    {
      ctx;
      proc;
      rng = Engine.fork_rng ();
      proxies = [||];
      epoch = 0;
      polling = Future.flight ();
      inflight = Array.make (Array.length ctx.Context.storage_eps) 0;
      obs_fanout = Fdb_obs.Registry.gauge metrics ~role ~process:pid "read_fanout";
      obs_range_bytes =
        Fdb_obs.Registry.gauge metrics ~role ~process:pid "range_bytes_per_req";
      obs_failovers =
        Fdb_obs.Registry.counter metrics ~role ~process:pid "read_failovers";
      obs_retry_delay = Fdb_obs.Registry.histogram metrics ~role ~process:pid "retry_delay";
      obs_replica_busy =
        Fdb_obs.Registry.counter metrics ~role ~process:pid "read_replica_busy";
      obs_bounces = Fdb_obs.Registry.counter metrics ~role ~process:pid "read_bounces";
      obs_stale_calls =
        Fdb_obs.Registry.counter metrics ~role ~process:pid "stale_proxy_calls";
    }
  in
  Engine.spawn ~process:proc "client-cc-watch" (fun () -> watch_cc db None);
  db

let storage_inflight db = Array.copy db.inflight
let read_fanout db = int_of_float !(db.obs_fanout)

(* Wait for the held poll's answer. *)
let refresh db = Future.map (poll db None) ignore

(* A proxy, with the generation of the list it came from. *)
let pick_proxy db =
  if Array.length db.proxies = 0 then None
  else Some (db.proxies.(Rng.int db.rng (Array.length db.proxies)), db.epoch)

(* A call to a proxy picked from generation [since]'s list failed: wait
   until the handle may know better proxies. That is at once when it has
   adopted a newer list since, else when the held poll is answered. *)
let await_proxies db ~since = if db.epoch <> since then Future.return () else refresh db

(* Call some proxy. A proxy of a generation that has ended ([Wrong_epoch],
   [Database_locked]) or a timeout retries, a couple of times, once
   [await_proxies] allows. Then give up with a retryable error for the
   [run] loop to handle. *)
let proxy_call db msg =
  let rec attempt n =
    if n = 0 then Error.fail Error.Timed_out
    else
      match pick_proxy db with
      | None ->
          let* () = refresh db in
          attempt (n - 1)
      | Some (ep, since) ->
          let retry () =
            let* () = await_proxies db ~since in
            attempt (n - 1)
          in
          Future.catch
            (fun () -> Context.rpc db.ctx ~timeout:5.0 ~from:db.proc ep msg)
            (function
              | Error.Fdb Error.Wrong_epoch | Error.Fdb Error.Database_locked ->
                  Fdb_obs.Registry.incr db.obs_stale_calls;
                  retry ()
              | Engine.Timed_out -> retry ()
              | e -> Future.fail e)
  in
  attempt 4

(* ---------- transactions ---------- *)

type buffered =
  | B_set of string
  | B_clear
  | B_atomic of (Mutation.atomic_kind * string) list (* application order *)

type watch = {
  wt_key : string;
  wt_future : unit Future.t;
  wt_promise : unit Future.promise;
}

type tx = {
  db : db;
  mutable options : tx_options;
  mutable read_version : (Types.version * Types.epoch) Future.t option;
  mutable writes : buffered KeyMap.t;
  mutable cleared : (string * string) list;
  mutable mutations : Message.client_mutation list; (* reversed *)
  mutable read_conflicts : (string * string) list;
  mutable write_conflicts : (string * string) list;
  mutable bytes : int;
  mutable read_bytes : int;
  mutable commit_result : Types.version Future.t option;
  mutable tx_watches : watch list; (* reversed; armed at successful commit *)
}

let begin_tx ?(options = default_options) db =
  {
    db;
    options;
    read_version = None;
    writes = KeyMap.empty;
    cleared = [];
    mutations = [];
    read_conflicts = [];
    write_conflicts = [];
    bytes = 0;
    read_bytes = 0;
    commit_result = None;
    tx_watches = [];
  }

let set_option t options = t.options <- options

let check_not_committed t =
  if t.commit_result <> None then raise (Error.Fdb Error.Used_during_commit)

let check_key k =
  if String.length k > Types.key_size_limit then raise (Error.Fdb Error.Key_too_large);
  if k >= Types.key_space_end then raise (Error.Fdb Error.Key_outside_legal_range)

let check_value v =
  if String.length v > Types.value_size_limit then raise (Error.Fdb Error.Value_too_large)

(* The snapshot is (version, epoch): the epoch rides along on storage reads
   so a StorageServer that has not yet heard about a recovery refuses to
   serve newer-generation read versions (it might hold rolled-back data). *)
let snapshot_info t =
  match t.read_version with
  | Some f -> f
  | None ->
      let f =
        let+ { Message.gv_version; gv_epoch } = proxy_call t.db Message.Grv_req in
        (gv_version, gv_epoch)
      in
      t.read_version <- Some f;
      f

let get_read_version t = Future.map (snapshot_info t) fst
let read_snapshot t = snapshot_info t
let set_read_version t v = t.read_version <- Some (Future.return (v, 0))

let add_read_conflict_range t ~from ~until =
  if from < until then t.read_conflicts <- (from, until) :: t.read_conflicts

let add_write_conflict_range t ~from ~until =
  if from < until then t.write_conflicts <- (from, until) :: t.write_conflicts

let nothing_buffered t = KeyMap.is_empty t.writes && t.cleared = []
let in_cleared t k = List.exists (fun (f, u) -> f <= k && k < u) t.cleared

(* Enforce the per-transaction read-byte cap (a [tx_options] knob); returns
   the byte budget a single storage round may still use. *)
let remaining_read_budget t ~want =
  match t.options.opt_max_read_bytes with
  | None -> want
  | Some cap ->
      let left = cap - t.read_bytes in
      if left <= 0 then raise (Error.Fdb Error.Transaction_too_large)
      else min want left

(* ---------- raw storage reads ---------- *)

let bytes_of_rows rows =
  List.fold_left (fun n (k, v) -> n + String.length k + String.length v) 0 rows

(* Keep rows while both budgets last; [cut = true] when anything was
   dropped. [keep_one] mirrors the storage-side guarantee that the very
   first row of a read is delivered even if it alone busts the byte
   budget, so bounded reads always make progress. Rows that nothing cuts
   come back as the same list, uncopied. *)
let take_budget ?(keep_one = false) rows ~rows_left ~bytes_left =
  let rec kept nrows nbytes = function
    | [] -> None
    | (k, v) :: tl ->
        if (nrows >= rows_left || nbytes >= bytes_left) && not (keep_one && nrows = 0)
        then Some nrows
        else kept (nrows + 1) (nbytes + String.length k + String.length v) tl
  in
  match kept 0 0 rows with
  | None -> (rows, false)
  | Some n -> (List.filteri (fun i _ -> i < n) rows, true)

(* The key of a batch's last row: its far edge in scan order. *)
let rec last_key = function
  | [] -> None
  | [ (k, _) ] -> Some k
  | _ :: tl -> last_key tl

(* A point read the server may refuse because it is busy. *)
let bounceable (type r) (msg : r Message.req) =
  match msg with Message.Storage_get { may_bounce; _ } -> may_bounce | _ -> false

(* Try each replica of [team] in order of this handle's in-flight
   requests to it, fewest first (FDB's [loadBalance]); ties keep a
   Det_rng-shuffled order. [msg ~last] is the request for one attempt;
   [last] is false while a replica of the team is still untried. A busy
   replica's refusal of a bounceable point read moves on to the next
   replica, counted as a bounce, not a failover; the refusing replica goes
   to the back of the order, where it is asked again, with [last] set,
   only if every replica after it failed. Fail over on communication
   errors and per-replica timeouts. Semantic rejections
   ([Transaction_too_old], [Wrong_shard]) propagate immediately: every
   replica of the team would answer the same. A request counts as in
   flight from its send until its future resolves, whatever the outcome. *)
let with_failover db ~team ~timeout msg =
  let replicas = Array.of_list team in
  let untried = Array.length replicas in
  Rng.shuffle db.rng replicas;
  Array.stable_sort (fun a b -> compare db.inflight.(a) db.inflight.(b)) replicas;
  if db.inflight.(replicas.(0)) > 0 then Fdb_obs.Registry.incr db.obs_replica_busy;
  let order = ref replicas in
  let send ss req =
    let reply =
      Context.rpc db.ctx ~timeout ~from:db.proc db.ctx.Context.storage_eps.(ss) req
    in
    db.inflight.(ss) <- db.inflight.(ss) + 1;
    Future.on_resolve reply (fun _ -> db.inflight.(ss) <- db.inflight.(ss) - 1);
    reply
  in
  let rec attempt i last_err =
    if i >= Array.length !order then Future.fail last_err
    else
      let ss = !order.(i) in
      let req = msg ~last:(i + 1 >= untried) in
      let failover err =
        if i + 1 < Array.length !order then begin
          Trace.emit "client_read_failover"
            [
              ("from_ss", string_of_int ss);
              ("to_ss", string_of_int !order.(i + 1));
            ];
          Fdb_obs.Registry.incr db.obs_failovers
        end;
        attempt (i + 1) err
      in
      Future.catch
        (fun () -> send ss req)
        (function
          | Error.Fdb Error.Transaction_too_old as e -> Future.fail e
          | Error.Fdb Error.Wrong_shard as e -> Future.fail e
          | Error.Fdb Error.Process_behind as e when bounceable req ->
              Fdb_obs.Registry.incr db.obs_bounces;
              order := Array.append !order [| ss |];
              attempt (i + 1) e
          | Engine.Timed_out -> failover (Error.Fdb Error.Timed_out)
          | Error.Fdb _ as e -> failover e
          | e -> Future.fail e)
  in
  attempt 0 (Error.Fdb Error.Timed_out)

let storage_get t key (version, rv_epoch) =
  let db = t.db in
  let rec with_resolution retries =
    let team = Shard_map.team_for_key db.ctx.Context.shard_map key in
    Future.catch
      (fun () ->
        with_failover db ~team ~timeout:Params.client_read_timeout (fun ~last ->
            Message.Storage_get { key; version; rv_epoch; may_bounce = not last }))
      (function
        | Error.Fdb Error.Wrong_shard when retries > 0 ->
            (* The shard map changed under us; [team_for_key] reads the
               live map, so simply retrying re-resolves. *)
            with_resolution (retries - 1)
        | e -> Future.fail e)
  in
  with_resolution 3

(* ---------- the range-read pipeline ---------- *)

(* One fragment task: drain [from, until) of a single shard fragment up to
   the given budgets, following [rr_more] continuations against the same
   replica team. Returns (rows, drained); [drained = false] means a budget
   ran out first. A [Wrong_shard] mid-walk means the shard map changed
   under the read: re-resolve the remainder against the live map and walk
   it sequentially (bounded by [re_resolves]) so continuations never
   silently truncate. *)
let rec fragment_fetch t ~version ~rv_epoch ~reverse ~row_limit ~byte_limit
    ~re_resolves ~team ~from ~until =
  let db = t.db in
  let rec go cursor acc nrows nbytes =
    let f, u = if reverse then (from, cursor) else (cursor, until) in
    if nrows >= row_limit || nbytes >= byte_limit then
      Future.return (List.concat (List.rev acc), false)
    else if f >= u then Future.return (List.concat (List.rev acc), true)
    else
      let* outcome =
        Future.catch
          (fun () ->
            let+ { Message.rr_rows; rr_more } =
              with_failover db ~team ~timeout:Params.client_read_timeout (fun ~last:_ ->
                  Message.Storage_get_range
                    {
                      gr_from = f;
                      gr_until = u;
                      gr_version = version;
                      gr_limit = row_limit - nrows;
                      gr_byte_limit = byte_limit - nbytes;
                      gr_reverse = reverse;
                      gr_epoch = rv_epoch;
                    })
            in
            `Batch (rr_rows, rr_more))
          (function
            | Error.Fdb Error.Wrong_shard when re_resolves > 0 ->
                Future.return `Re_resolve
            | e -> Future.fail e)
      in
      match outcome with
      | `Re_resolve ->
          Trace.emit "client_range_re_resolve" [ ("from", f); ("until", u) ];
          let* rows, drained =
            ranged_fetch t ~version ~rv_epoch ~reverse
              ~row_limit:(row_limit - nrows) ~byte_limit:(byte_limit - nbytes)
              ~re_resolves:(re_resolves - 1) ~from:f ~until:u
          in
          Future.return (List.concat (List.rev acc) @ rows, drained)
      | `Batch ([], _) ->
          (* An empty reply cannot carry a continuation cursor: treat the
             fragment as drained rather than loop forever. *)
          Future.return (List.concat (List.rev acc), true)
      | `Batch (rows, more) ->
          let nrows = nrows + List.length rows in
          let nbytes = nbytes + bytes_of_rows rows in
          let acc = rows :: acc in
          if not more then Future.return (List.concat (List.rev acc), true)
          else
            let last = Option.get (last_key rows) in
            let cursor = if reverse then last else Types.next_key last in
            go cursor acc nrows nbytes
  in
  go (if reverse then until else from) [] 0 0

(* The one fragment walker: per-shard sub-reads issued concurrently
   (§2.4.1: clients talk to StorageServers directly, one team per shard).
   Fragments launch in scan order, each with the budget still unspent, and
   are consumed strictly in scan order. The fragment the read waits on
   next is always on the wire. Beyond it, at the start and after each
   fragment consumed, the next fragment launches while (a) fewer than
   [min rows_still_wanted storage_servers] fragments are launched and
   unconsumed, and (b) its team has a replica with none of this handle's
   requests in flight. The launched fragments may over-fetch (bounded by
   that window × budget), so trimming happens client-side; a one-row read
   is the sequential walk. The handle's [read_fanout] gauge holds the
   read's peak window. *)
and ranged_fetch t ~version ~rv_epoch ~reverse ~row_limit ~byte_limit
    ~re_resolves ~from ~until =
  let db = t.db in
  let frags =
    let fs = Shard_map.shards_for_range db.ctx.Context.shard_map ~from ~until in
    Array.of_list (if reverse then List.rev fs else fs)
  in
  let n = Array.length frags in
  let servers = Array.length db.inflight in
  let tasks = Array.make n None in
  let launched = ref 0 and peak = ref 0 in
  (* Launch from [!launched] on, where [next] is the fragment the read
     consumes next. *)
  let launch ~next ~row_limit ~byte_limit =
    let window = min row_limit servers in
    let rec go () =
      if !launched < n then begin
        let f, u, team = frags.(!launched) in
        if
          !launched = next
          || (!launched - next < window
             && List.exists (fun ss -> db.inflight.(ss) = 0) team)
        then begin
          tasks.(!launched) <-
            Some
              (fragment_fetch t ~version ~rv_epoch ~reverse ~row_limit ~byte_limit
                 ~re_resolves ~team ~from:f ~until:u);
          incr launched;
          go ()
        end
      end
    in
    go ();
    if !launched - next > !peak then begin
      peak := !launched - next;
      Fdb_obs.Registry.set_gauge db.obs_fanout (float_of_int !peak)
    end
  in
  let rec consume i acc nrows nbytes =
    let* rows, drained = Option.get tasks.(i) in
    let rows, cut =
      take_budget rows ~keep_one:(nrows = 0) ~rows_left:(row_limit - nrows)
        ~bytes_left:(byte_limit - nbytes)
    in
    let acc = rows :: acc in
    let nrows = nrows + List.length rows and nbytes = nbytes + bytes_of_rows rows in
    if cut || not drained then Future.return (List.concat (List.rev acc), false)
    else if i + 1 >= n then Future.return (List.concat (List.rev acc), true)
    else if nrows >= row_limit || nbytes >= byte_limit then
      Future.return (List.concat (List.rev acc), false)
    else begin
      launch ~next:(i + 1) ~row_limit:(row_limit - nrows)
        ~byte_limit:(byte_limit - nbytes);
      consume (i + 1) acc nrows nbytes
    end
  in
  if n = 0 then Future.return ([], true)
  else begin
    launch ~next:0 ~row_limit ~byte_limit;
    consume 0 [] 0 0
  end

(* ---------- reads with read-your-writes ---------- *)

let apply_ops_to_base base ops =
  List.fold_left
    (fun acc (kind, operand) -> Mutation.atomic_result kind ~old_value:acc operand)
    base ops

let get ?(snapshot = false) t key =
  check_not_committed t;
  check_key key;
  match KeyMap.find_opt key t.writes with
  | Some (B_set v) -> Future.return (Some v)
  | Some B_clear -> Future.return None
  | Some (B_atomic ops) ->
      (* Needs the pre-transaction base value. *)
      let* version = snapshot_info t in
      if not snapshot then
        add_read_conflict_range t ~from:key ~until:(Types.next_key key);
      let* base =
        if in_cleared t key then Future.return None else storage_get t key version
      in
      Future.return (apply_ops_to_base base ops)
  | None ->
      if in_cleared t key then Future.return None
      else begin
        let* version = snapshot_info t in
        if not snapshot then
          add_read_conflict_range t ~from:key ~until:(Types.next_key key);
        let _budget = remaining_read_budget t ~want:1 in
        let* v = storage_get t key version in
        (match v with
        | Some v -> t.read_bytes <- t.read_bytes + String.length key + String.length v
        | None -> ());
        Future.return v
      end

(* One bounded, RYW-merged read of [\[from, until)]: fetch from storage
   through the pipeline, overlay buffered writes over exactly the span the
   storage result covers, and report a continuation cursor when either
   budget cut the read short. Because the storage rows are span-complete,
   atomic-op base values come straight from the fetched map — no extra
   point reads. *)
let read_merged t ~snap:(version, rv_epoch) ~from ~until ~reverse ~row_limit
    ~byte_limit ~conflict =
  let byte_limit = remaining_read_budget t ~want:byte_limit in
  let* storage_rows, drained =
    ranged_fetch t ~version ~rv_epoch ~reverse ~row_limit ~byte_limit
      ~re_resolves:3 ~from ~until
  in
  let got_bytes = bytes_of_rows storage_rows in
  t.read_bytes <- t.read_bytes + got_bytes;
  Fdb_obs.Registry.set_gauge t.db.obs_range_bytes (float_of_int got_bytes);
  (* The observed span: what the storage result is authoritative for. *)
  let span_lo, span_hi =
    if drained then (from, until)
    else
      match last_key storage_rows with
      | None -> (from, until)
      | Some last ->
          if reverse then (last, until) else (from, Types.next_key last)
  in
  if conflict then add_read_conflict_range t ~from:span_lo ~until:span_hi;
  let rows =
    if nothing_buffered t then
      (* Nothing to merge: the storage rows are the answer, already in
         scan order. *)
      storage_rows
    else
      let base_map =
        List.fold_left
          (fun m (k, v) -> if in_cleared t k then m else KeyMap.add k v m)
          KeyMap.empty storage_rows
      in
      let merged =
        KeyMap.fold
          (fun k b m ->
            if k < span_lo || k >= span_hi then m
            else
              match b with
              | B_set v -> KeyMap.add k v m
              | B_clear -> KeyMap.remove k m
              | B_atomic ops -> (
                  match apply_ops_to_base (KeyMap.find_opt k m) ops with
                  | Some v -> KeyMap.add k v m
                  | None -> KeyMap.remove k m))
          t.writes base_map
      in
      let bindings = KeyMap.bindings merged in
      if reverse then List.rev bindings else bindings
  in
  let kept, trimmed = take_budget rows ~rows_left:row_limit ~bytes_left:max_int in
  let continuation =
    if trimmed then
      Option.map
        (fun last -> if reverse then last else Types.next_key last)
        (last_key kept)
    else if not drained then Some (if reverse then span_lo else span_hi)
    else None
  in
  Future.return (kept, continuation)

(* Row and byte budgets of one storage round-trip that wants at most
   [rows] rows. *)
let budgets mode ~rows =
  match mode with
  | `Want_all -> (rows, Params.range_bytes_want_all)
  | `Iterator ->
      (min rows Params.range_rows_per_batch, Params.range_bytes_per_req)
  | `Exact n -> (min rows (max 1 n), Params.range_bytes_want_all)

(* The one batch loop: drain [\[from, until)] through [read_merged]
   batches, stitching continuations, until the range is exhausted or
   [limit] rows are in hand. *)
let collect t ~snap ~mode ~limit ~reverse ~from ~until =
  let rec loop ~from ~until acc collected =
    let remaining = limit - collected in
    if remaining <= 0 || from >= until then Future.return (List.concat (List.rev acc))
    else
      let row_limit, byte_limit = budgets mode ~rows:remaining in
      let* rows, continuation =
        read_merged t ~snap ~from ~until ~reverse ~row_limit ~byte_limit ~conflict:false
      in
      let acc = rows :: acc in
      match continuation with
      | None -> Future.return (List.concat (List.rev acc))
      | Some c ->
          let from, until = if reverse then (from, c) else (c, until) in
          loop ~from ~until acc (collected + List.length rows)
  in
  loop ~from ~until [] 0

(* ---------- key-selector resolution ---------- *)

(* Normalize a selector into a walk: [`Forward] finds the [need]-th key
   [>= start]; [`Reverse] finds the [need]-th key [< start]. *)
let selector_walk (sel : Key_selector.t) =
  let start = if sel.sel_or_equal then Types.next_key sel.sel_key else sel.sel_key in
  let start = if start > Types.key_space_end then Types.key_space_end else start in
  if sel.sel_offset >= 1 then (`Forward, start, sel.sel_offset)
  else (`Reverse, start, 1 - sel.sel_offset)

(* Resolve a selector to a concrete key: the [need]-th row of a snapshot
   batch walk from [start], through the RYW merge so buffered writes and
   clears count. Clamped to [""] / [Types.key_space_end] when the walk runs
   off the edge of the key space (the standard FDB clamp). *)
let resolve_key t snap sel =
  let dir, start, need = selector_walk sel in
  let reverse = dir = `Reverse in
  let from, until = if reverse then ("", start) else (start, Types.key_space_end) in
  let* rows = collect t ~snap ~mode:`Want_all ~limit:need ~reverse ~from ~until in
  Future.return
    (match List.nth_opt rows (need - 1) with
    | Some (k, _) -> k
    | None -> if reverse then "" else Types.key_space_end)

let get_key ?(snapshot = false) t sel =
  check_not_committed t;
  let* snap = snapshot_info t in
  let* k = resolve_key t snap sel in
  (if not snapshot then
     (* Conflict on everything the resolution observed. *)
     let dir, start, _ = selector_walk sel in
     match dir with
     | `Forward -> add_read_conflict_range t ~from:start ~until:(Types.next_key k)
     | `Reverse -> add_read_conflict_range t ~from:k ~until:start);
  Future.return k

(* Range endpoints resolve with a fast path: firstGreaterOrEqual with no
   offset IS its key as a range bound — no round-trip needed. *)
let resolve_endpoint t snap (sel : Key_selector.t) =
  if (not sel.sel_or_equal) && sel.sel_offset = 1 then Future.return sel.sel_key
  else resolve_key t snap sel

let clamp_key k = if k > Types.key_space_end then Types.key_space_end else k

(* ---------- the unified range API ---------- *)

type batch = {
  batch_rows : (string * string) list;
  batch_continuation : string option;
}

(* Clamp already-concrete bounds to a continuation cursor. *)
let apply_continuation ~reverse ~continuation (from, until) =
  match continuation with
  | None -> (from, until)
  | Some c -> if reverse then (from, min c until) else (max c from, until)

(* The query's concrete bounds, narrowed by its continuation cursor.
   Plain-key bounds need no round-trip (and must lie in the legal key
   space); selector bounds resolve at the snapshot and clamp to it. *)
let query_bounds t (q : Range_query.t) =
  let narrow bounds =
    apply_continuation ~reverse:q.rq_reverse ~continuation:q.rq_continuation
      bounds
  in
  match Range_query.trivial_bounds q with
  | Some (from, until) ->
      if until > Types.key_space_end then
        raise (Error.Fdb Error.Key_outside_legal_range);
      Future.return (narrow (from, until))
  | None ->
      let* snap = snapshot_info t in
      let* lo = resolve_endpoint t snap q.rq_begin in
      let* hi = resolve_endpoint t snap q.rq_end in
      Future.return (narrow (clamp_key lo, clamp_key hi))

(* One bounded batch of the query — the streaming building block. Each
   batch adds a read conflict only over the span it actually observed; it
   never asks storage for more than 1M rows. *)
let range t (q : Range_query.t) =
  check_not_committed t;
  let* from, until = query_bounds t q in
  if from >= until then
    Future.return { batch_rows = []; batch_continuation = None }
  else
    let* snap = snapshot_info t in
    let row_limit, byte_limit =
      budgets q.rq_mode ~rows:(min 1_000_000 q.rq_limit)
    in
    let* rows, continuation =
      read_merged t ~snap ~from ~until ~reverse:q.rq_reverse ~row_limit ~byte_limit
        ~conflict:(not q.rq_snapshot)
    in
    Future.return { batch_rows = rows; batch_continuation = continuation }

(* Drain the query to a list: conflict on the whole span up front (the
   result logically depends on all of it), then run the batch loop. *)
let range_all t (q : Range_query.t) =
  check_not_committed t;
  let* from, until = query_bounds t q in
  if from >= until then Future.return []
  else begin
    let* snap = snapshot_info t in
    if not q.rq_snapshot then add_read_conflict_range t ~from ~until;
    collect t ~snap ~mode:q.rq_mode ~limit:q.rq_limit ~reverse:q.rq_reverse ~from
      ~until
  end

(* ---------- writes ---------- *)

let record_mutation t (m : Message.client_mutation) size =
  t.mutations <- m :: t.mutations;
  t.bytes <- t.bytes + size

let set t key value =
  check_not_committed t;
  check_key key;
  check_value value;
  t.writes <- KeyMap.add key (B_set value) t.writes;
  record_mutation t (Message.Plain (Mutation.Set (key, value)))
    (String.length key + String.length value);
  add_write_conflict_range t ~from:key ~until:(Types.next_key key)

let clear t key =
  check_not_committed t;
  check_key key;
  t.writes <- KeyMap.add key B_clear t.writes;
  record_mutation t (Message.Plain (Mutation.Clear key)) (String.length key);
  add_write_conflict_range t ~from:key ~until:(Types.next_key key)

let clear_range t ~from ~until =
  check_not_committed t;
  check_key from;
  if until > Types.key_space_end then raise (Error.Fdb Error.Key_outside_legal_range);
  if from < until then begin
    t.cleared <- (from, until) :: t.cleared;
    t.writes <- KeyMap.filter (fun k _ -> k < from || k >= until) t.writes;
    record_mutation t
      (Message.Plain (Mutation.Clear_range (from, until)))
      (String.length from + String.length until);
    add_write_conflict_range t ~from ~until
  end

let atomic_op t kind key operand =
  check_not_committed t;
  check_key key;
  check_value operand;
  (let next =
     match KeyMap.find_opt key t.writes with
     | Some (B_set v) -> (
         match Mutation.atomic_result kind ~old_value:(Some v) operand with
         | Some v' -> B_set v'
         | None -> B_clear)
     | Some B_clear -> (
         match Mutation.atomic_result kind ~old_value:None operand with
         | Some v' -> B_set v'
         | None -> B_clear)
     | Some (B_atomic ops) -> B_atomic (ops @ [ (kind, operand) ])
     | None ->
         if in_cleared t key then
           match Mutation.atomic_result kind ~old_value:None operand with
           | Some v' -> B_set v'
           | None -> B_clear
         else B_atomic [ (kind, operand) ]
   in
   t.writes <- KeyMap.add key next t.writes);
  record_mutation t
    (Message.Plain (Mutation.Atomic (kind, key, operand)))
    (String.length key + String.length operand);
  (* Atomic ops conflict as writes only (§2.6). *)
  add_write_conflict_range t ~from:key ~until:(Types.next_key key)

let set_versionstamped_key t ~template ~offset ~value =
  check_not_committed t;
  check_value value;
  if
    offset < 0
    || offset + 10 > String.length template
    || String.length template > Types.key_size_limit
  then raise (Error.Fdb Error.Key_too_large);
  record_mutation t
    (Message.Versionstamped_key { template; offset; value })
    (String.length template + String.length value);
  (* The final key is unknown until commit: conflict on the template range. *)
  add_write_conflict_range t ~from:template ~until:(Types.next_key template)

let set_versionstamped_value t ~key ~template ~offset =
  check_not_committed t;
  check_key key;
  if offset < 0 || offset + 10 > String.length template then
    raise (Error.Fdb Error.Value_too_large);
  record_mutation t
    (Message.Versionstamped_value { key; template; offset })
    (String.length key + String.length template);
  add_write_conflict_range t ~from:key ~until:(Types.next_key key)

(* ---------- commit ---------- *)

let do_commit t =
  if t.mutations = [] && t.write_conflicts = [] then
    (* Read-only transactions commit client-side (§2.4.1). *)
    Future.return 0L
  else if t.bytes > Types.transaction_size_limit then
    Error.fail Error.Transaction_too_large
  else begin
    let* read_version, _epoch =
      match t.read_version with
      | Some f -> f
      | None -> Future.return (0L, 0) (* blind writes carry no read snapshot *)
    in
    let req =
      {
        Message.tr_read_version = read_version;
        tr_reads = t.read_conflicts;
        tr_writes = t.write_conflicts;
        tr_mutations = List.rev t.mutations;
      }
    in
    (* A commit goes to exactly one proxy, exactly once: resending could
       apply the transaction twice at two different versions. When the
       request may have reached the cluster and its fate is unprovable, the
       answer is Commit_unknown_result, exactly as in FDB. *)
    let* proxy =
      match pick_proxy t.db with
      | Some _ as picked -> Future.return picked
      | None ->
          let* () = refresh t.db in
          Future.return (pick_proxy t.db)
    in
    match proxy with
    | None -> Error.fail Error.Timed_out (* never sent: definitely not committed *)
    | Some (ep, since) ->
        Future.catch
          (fun () ->
            Context.rpc t.db.ctx ~timeout:8.0 ~from:t.db.proc ep
              (Message.Commit_req req))
          (fun e ->
            (* The proxy may belong to a dead generation: wait for better
               proxies, or a client that only sends blind writes (no GRV
               step) would send its retry to the same one. *)
            let fail_after err =
              let* () = await_proxies t.db ~since in
              Error.fail err
            in
            match e with
            | Engine.Timed_out -> fail_after Error.Commit_unknown_result
            | Error.Fdb Error.Wrong_epoch ->
                Fdb_obs.Registry.incr t.db.obs_stale_calls;
                fail_after Error.Commit_unknown_result
            | Error.Fdb Error.Database_locked ->
                (* Definite no-commit from a proxy of a dead generation. *)
                Fdb_obs.Registry.incr t.db.obs_stale_calls;
                fail_after Error.Database_locked
            | e -> Future.fail e)
  end

(* ---------- watches ---------- *)

(* A watch is created inside a transaction and armed only if that
   transaction commits: the semantics are "wake me when [key] changes
   after the state this transaction observed/produced". Spurious wakes are
   allowed (the waiter re-reads and re-arms); lost wakes are not. *)

let watch t key =
  check_not_committed t;
  check_key key;
  let wt_future, wt_promise = Future.make ~label:"client.watch" () in
  let w = { wt_key = key; wt_future; wt_promise } in
  t.tx_watches <- w :: t.tx_watches;
  w

let watch_future w = w.wt_future

let cancel_watch w =
  ignore (Future.try_break w.wt_promise (Future.Cancelled "client.watch") : bool)

(* Long-poll one watch until it fires or is cancelled. Each round
   re-registers from the version the previous server reply vouched for, so
   the registration never goes stale on a healthy server (the server's
   poll window sits well inside the MVCC window). [Wrong_shard] re-resolves
   against the live shard map and re-registers on the new owner, whose
   registration-time catch-up covers changes that landed during the move.
   [Transaction_too_old] means no server can prove the key unchanged since
   [version]: fire conservatively. *)
let rec watch_poll db w ~version ~epoch =
  if Future.is_resolved w.wt_future then Future.return ()
  else
    let team = Shard_map.team_for_key db.ctx.Context.shard_map w.wt_key in
    let* next =
      Future.catch
        (fun () ->
          let+ { Message.wr_fired; wr_version = v } =
            with_failover db ~team ~timeout:(Params.watch_poll_timeout +. 1.0)
              (fun ~last:_ ->
                Message.Ss_watch { w_key = w.wt_key; w_version = version; w_epoch = epoch })
          in
          if wr_fired then begin
            Trace.emit "client_watch_fire"
              [ ("key", String.escaped w.wt_key); ("v", Int64.to_string v) ];
            ignore (Future.try_fulfill w.wt_promise () : bool);
            None
          end
          else Some v)
        (function
          | Error.Fdb Error.Wrong_shard ->
              Trace.emit "client_watch_re_resolve"
                [ ("key", String.escaped w.wt_key) ];
              let* () = Engine.sleep 0.05 in
              Future.return (Some version)
          | Error.Fdb Error.Transaction_too_old ->
              Trace.emit "client_watch_conservative_fire"
                [ ("key", String.escaped w.wt_key) ];
              ignore (Future.try_fulfill w.wt_promise () : bool);
              Future.return None
          | Error.Fdb _ ->
              (* Transient storage trouble (lagging replica, recovery,
                 timeouts): back off and re-register from the same version. *)
              let* () = Engine.sleep (0.1 +. Engine.random_float 0.2) in
              Future.return (Some version)
          | e -> Future.fail e)
    in
    match next with
    | None -> Future.return ()
    | Some version -> watch_poll db w ~version ~epoch

(* Arm the transaction's watches off the commit outcome. Runs only when
   the transaction actually created watches, so transactions that don't
   use the layer keep byte-identical schedules. The watch version is
   max(read version, commit version): the transaction's own write to the
   watched key must not wake it, and neither may anything it already
   observed. *)
let arm_watches t commit_future =
  Future.on_resolve commit_future (function
    | Ok commit_version ->
        let read_version, epoch =
          match t.read_version with
          | Some rvf -> (
              match Future.peek rvf with Some (v, e) -> (v, e) | None -> (0L, 0))
          | None -> (0L, 0)
        in
        let version =
          if commit_version > read_version then commit_version else read_version
        in
        List.iter
          (fun w ->
            if not (Future.is_resolved w.wt_future) then
              Engine.spawn ~process:t.db.proc "client-watch" (fun () ->
                  watch_poll t.db w ~version ~epoch))
          (List.rev t.tx_watches)
    | Error _ ->
        List.iter
          (fun w ->
            ignore
              (Future.try_break w.wt_promise (Future.Cancelled "client.watch")
                : bool))
          (List.rev t.tx_watches))

let commit t =
  match t.commit_result with
  | Some f -> f
  | None ->
      let f = do_commit t in
      t.commit_result <- Some f;
      if t.tx_watches <> [] then arm_watches t f;
      f

(* ---------- unified error reporting ---------- *)

(* Every failure the client surfaces is an [Error.Fdb] carrying a typed
   [Error.t]; anything else (engine-internal exceptions, programming
   errors) is not a transaction outcome and must not be retried. *)
let classify_exn : exn -> Error.t option = function
  | Error.Fdb e -> Some e
  | _ -> None

(* ---------- retry loop ---------- *)

let run db ?(max_attempts = 64) ?options f =
  let options = Option.value options ~default:default_options in
  let deadline = Option.map (fun s -> Engine.now () +. s) options.opt_timeout in
  let rec attempt n backoff =
    let t = begin_tx ~options db in
    let body () =
      let* result = f t in
      let* _version = commit t in
      Future.return result
    in
    let guarded () =
      match deadline with
      | None -> body ()
      | Some d ->
          let left = d -. Engine.now () in
          if left <= 0.0 then Error.fail Error.Timed_out
          else
            Future.catch
              (fun () -> Engine.timeout left (body ()))
              (function
                | Engine.Timed_out -> Error.fail Error.Timed_out
                | e -> Future.fail e)
    in
    Future.catch guarded
      (fun exn ->
        match classify_exn exn with
        | Some e
          when Error.is_retryable e && n < max_attempts
               && (match deadline with
                  | None -> true
                  | Some d -> Engine.now () < d) ->
            (* Jitter as wide as the backoff, above it: full jitter (0 to
               b) retries a hot key too soon to stop it aborting again
               (DESIGN.md, "Client retries"). *)
            let b = Float.min backoff 1.0 in
            let delay = b +. Engine.random_float b in
            Fdb_obs.Registry.observe db.obs_retry_delay delay;
            let* () = Engine.sleep delay in
            attempt (n + 1) (backoff *. 2.0)
        | _ -> Future.fail exn)
  in
  attempt 1 0.01

(* Re-export of the typed error surface under the client's own name, so
   layer code (and applications) can classify outcomes without reaching
   into the core error module: [Client.Error.classify] turns any exception
   a transaction raised into [Some err], and [Client.Error.retryable] is
   the single authority [run] keys its retry decision off. *)
module Error = struct
  include Error

  let retryable = Error.is_retryable
  let classify = classify_exn
end
