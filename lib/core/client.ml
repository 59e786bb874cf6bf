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
  opt_retry_limit : int option;
  opt_max_read_bytes : int option;
}

let default_options =
  { opt_timeout = None; opt_retry_limit = None; opt_max_read_bytes = None }

type db = {
  ctx : Context.t;
  proc : Process.t;
  rng : Rng.t;
  mutable proxies : int array;
  mutable refreshing : bool;
  obs_fanout : Fdb_obs.Registry.gauge;
  obs_range_bytes : Fdb_obs.Registry.gauge;
  obs_failovers : Fdb_obs.Registry.counter;
}

let versionstamp_placeholder = String.make 10 '\x00'

let create_db ctx proc =
  let metrics = ctx.Context.metrics in
  let pid = proc.Process.pid in
  let role = Fdb_obs.Registry.Client in
  {
    ctx;
    proc;
    rng = Engine.fork_rng ();
    proxies = [||];
    refreshing = false;
    obs_fanout = Fdb_obs.Registry.gauge metrics ~role ~process:pid "read_fanout";
    obs_range_bytes =
      Fdb_obs.Registry.gauge metrics ~role ~process:pid "range_bytes_per_req";
    obs_failovers =
      Fdb_obs.Registry.counter metrics ~role ~process:pid "read_failovers";
  }

(* Find the ClusterController through the coordinators, then ask it for the
   current proxies — the client's bootstrap path. *)
let refresh db =
  if db.refreshing then Engine.sleep 0.1
  else begin
    db.refreshing <- true;
    Future.protect
      ~finally:(fun () -> db.refreshing <- false)
      (fun () ->
        let transport = Context.paxos_transport db.ctx ~from:db.proc in
        let* leader =
          Future.catch
            (fun () ->
              Fdb_paxos.Election.leader_via transport ~reg:"cc-leader"
                ~proposer:(Context.proposer_id db.proc))
            (fun _ -> Future.return None)
        in
        match Option.bind leader int_of_string_opt with
        | None -> Engine.sleep 0.1
        | Some machine when machine >= Array.length db.ctx.Context.worker_eps ->
            Engine.sleep 0.1
        | Some machine ->
            Future.catch
              (fun () ->
                let* reply =
                  Context.rpc db.ctx ~timeout:1.0 ~from:db.proc
                    db.ctx.Context.worker_eps.(machine) Message.Cc_get_state
                in
                (match reply with
                | Message.Cc_state { st_proxies; st_recovered = true; _ } ->
                    db.proxies <- Array.of_list st_proxies
                | _ -> ());
                Future.return ())
              (fun _ -> Future.return ()))
  end

let pick_proxy db =
  if Array.length db.proxies = 0 then None
  else Some db.proxies.(Rng.int db.rng (Array.length db.proxies))

(* Call some proxy, refreshing the proxy list and retrying a couple of
   times on communication failures before giving up with a retryable
   error for the [run] loop to handle. *)
let proxy_call db msg =
  let rec attempt n =
    if n = 0 then Error.fail Error.Timed_out
    else
      match pick_proxy db with
      | None ->
          let* () = refresh db in
          attempt (n - 1)
      | Some ep ->
          Future.catch
            (fun () -> Context.rpc db.ctx ~timeout:5.0 ~from:db.proc ep msg)
            (function
              | Error.Fdb Error.Wrong_epoch | Error.Fdb Error.Database_locked
              | Engine.Timed_out ->
                  let* () = refresh db in
                  attempt (n - 1)
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
        let* reply = proxy_call t.db Message.Grv_req in
        match reply with
        | Message.Grv_reply { gv_version; gv_epoch } ->
            Future.return (gv_version, gv_epoch)
        | _ -> Error.fail Error.Timed_out
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
   budget, so bounded reads always make progress. *)
let take_budget ?(keep_one = false) rows ~rows_left ~bytes_left =
  let rec go acc nrows nbytes = function
    | [] -> (List.rev acc, false)
    | (k, v) :: tl ->
        if (nrows >= rows_left || nbytes >= bytes_left) && not (keep_one && acc = [])
        then (List.rev acc, true)
        else
          go ((k, v) :: acc) (nrows + 1)
            (nbytes + String.length k + String.length v)
            tl
  in
  go [] 0 0 rows

let take_count n l =
  let rec go acc n = function
    | [] -> (List.rev acc, false)
    | _ when n <= 0 -> (List.rev acc, true)
    | x :: tl -> go (x :: acc) (n - 1) tl
  in
  go [] n l

(* Try each replica of [team] in a Det_rng-shuffled order, failing over on
   communication errors and per-replica timeouts. Semantic rejections
   ([Transaction_too_old], [Wrong_shard]) propagate immediately: every
   replica of the team would answer the same. *)
let with_failover db ~team call =
  let replicas = Array.of_list team in
  Rng.shuffle db.rng replicas;
  let rec attempt i last_err =
    if i >= Array.length replicas then Future.fail last_err
    else
      let ss = replicas.(i) in
      let failover err =
        if i + 1 < Array.length replicas then begin
          Trace.emit "client_read_failover"
            [
              ("from_ss", string_of_int ss);
              ("to_ss", string_of_int replicas.(i + 1));
            ];
          Fdb_obs.Registry.incr db.obs_failovers
        end;
        attempt (i + 1) err
      in
      Future.catch
        (fun () -> call ss)
        (function
          | Error.Fdb Error.Transaction_too_old as e -> Future.fail e
          | Error.Fdb Error.Wrong_shard as e -> Future.fail e
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
        with_failover db ~team (fun ss ->
            let ep = db.ctx.Context.storage_eps.(ss) in
            let* reply =
              Context.rpc db.ctx ~timeout:Params.client_read_timeout ~from:db.proc
                ep
                (Message.Storage_get { key; version; rv_epoch })
            in
            match reply with
            | Message.Storage_get_reply v -> Future.return v
            | _ -> Future.fail (Error.Fdb Error.Timed_out)))
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
   under the read: re-resolve the remainder against the live map and keep
   going (bounded by [re_resolves]) so continuations never silently
   truncate. *)
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
            let* batch =
              with_failover db ~team (fun ss ->
                  let ep = db.ctx.Context.storage_eps.(ss) in
                  let* reply =
                    Context.rpc db.ctx ~timeout:Params.client_read_timeout
                      ~from:db.proc ep
                      (Message.Storage_get_range
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
                  match reply with
                  | Message.Storage_get_range_reply { rr_rows; rr_more } ->
                      Future.return (rr_rows, rr_more)
                  | _ -> Future.fail (Error.Fdb Error.Timed_out))
            in
            Future.return (`Batch batch))
          (function
            | Error.Fdb Error.Wrong_shard when re_resolves > 0 ->
                Future.return `Re_resolve
            | e -> Future.fail e)
      in
      match outcome with
      | `Re_resolve ->
          Trace.emit "client_range_re_resolve" [ ("from", f); ("until", u) ];
          let* rows, drained =
            seq_fragments t ~version ~rv_epoch ~reverse
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
            (* Rows arrive in scan order, so the last row is the far edge
               of what the reply covered. *)
            let last = fst (List.hd (List.rev rows)) in
            let cursor = if reverse then last else Types.next_key last in
            go cursor acc nrows nbytes
  in
  go (if reverse then until else from) [] 0 0

(* Sequential walk over the (freshly resolved) fragments of a range — the
   re-resolution path after a [Wrong_shard]. *)
and seq_fragments t ~version ~rv_epoch ~reverse ~row_limit ~byte_limit
    ~re_resolves ~from ~until =
  let frags =
    let fs = Shard_map.shards_for_range t.db.ctx.Context.shard_map ~from ~until in
    if reverse then List.rev fs else fs
  in
  let rec walk frags acc nrows nbytes =
    match frags with
    | [] -> Future.return (List.concat (List.rev acc), true)
    | _ when nrows >= row_limit || nbytes >= byte_limit ->
        Future.return (List.concat (List.rev acc), false)
    | (f, u, team) :: rest ->
        let* rows, drained =
          fragment_fetch t ~version ~rv_epoch ~reverse
            ~row_limit:(row_limit - nrows) ~byte_limit:(byte_limit - nbytes)
            ~re_resolves ~team ~from:f ~until:u
        in
        if not drained then
          Future.return (List.concat (List.rev (rows :: acc)), false)
        else
          walk rest (rows :: acc) (nrows + List.length rows)
            (nbytes + bytes_of_rows rows)
  in
  walk frags [] 0 0

(* The parallel pipeline: per-shard sub-reads issued concurrently with a
   bounded fan-out window (§2.4.1: clients talk to StorageServers
   directly, one team per shard). Fragments are consumed strictly in scan
   order; completing one launches the next, so at most [client_range_fanout]
   sub-reads are in flight. In-flight fragments each carry the full
   remaining budget — they may over-fetch (bounded by fanout × budget) but
   never under-fetch, so trimming happens client-side. *)
let ranged_fetch t ~version ~rv_epoch ~from ~until ~reverse ~row_limit
    ~byte_limit =
  let db = t.db in
  let fragments =
    let fs = Shard_map.shards_for_range db.ctx.Context.shard_map ~from ~until in
    if reverse then List.rev fs else fs
  in
  let frags = Array.of_list fragments in
  let n = Array.length frags in
  let fanout = max 1 Params.client_range_fanout in
  Fdb_obs.Registry.set_gauge db.obs_fanout (float_of_int (min fanout (max n 1)));
  if n = 0 then Future.return ([], true)
  else begin
    let tasks = Array.make n None in
    let launch i =
      if i < n && tasks.(i) = None then
        let f, u, team = frags.(i) in
        tasks.(i) <-
          Some
            (fragment_fetch t ~version ~rv_epoch ~reverse ~row_limit ~byte_limit
               ~re_resolves:3 ~team ~from:f ~until:u)
    in
    for i = 0 to min fanout n - 1 do
      launch i
    done;
    let rec consume i acc nrows nbytes =
      if i >= n then Future.return (List.concat (List.rev acc), true)
      else if nrows >= row_limit || nbytes >= byte_limit then
        Future.return (List.concat (List.rev acc), false)
      else begin
        launch i;
        let task = Option.get tasks.(i) in
        let* rows, drained = task in
        launch (i + fanout);
        let rows, cut =
          take_budget rows ~keep_one:(nrows = 0) ~rows_left:(row_limit - nrows)
            ~bytes_left:(byte_limit - nbytes)
        in
        let acc = rows :: acc in
        if cut || not drained then
          Future.return (List.concat (List.rev acc), false)
        else
          consume (i + 1) acc (nrows + List.length rows)
            (nbytes + bytes_of_rows rows)
      end
    in
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
    ranged_fetch t ~version ~rv_epoch ~from ~until ~reverse ~row_limit ~byte_limit
  in
  let got_bytes = bytes_of_rows storage_rows in
  t.read_bytes <- t.read_bytes + got_bytes;
  Fdb_obs.Registry.set_gauge t.db.obs_range_bytes (float_of_int got_bytes);
  (* The observed span: what the storage result is authoritative for. *)
  let span_lo, span_hi =
    if drained then (from, until)
    else
      match List.rev storage_rows with
      | [] -> (from, until)
      | (last, _) :: _ ->
          if reverse then (last, until) else (from, Types.next_key last)
  in
  if conflict then add_read_conflict_range t ~from:span_lo ~until:span_hi;
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
  let bindings = if reverse then List.rev bindings else bindings in
  let kept, trimmed = take_count row_limit bindings in
  let continuation =
    if trimmed then
      match List.rev kept with
      | (last, _) :: _ -> Some (if reverse then last else Types.next_key last)
      | [] -> None
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

(* ---------- key-selector resolution ---------- *)

(* Normalize a selector into a walk: [`Forward] finds the [need]-th key
   [>= start]; [`Reverse] finds the [need]-th key [< start]. *)
let selector_walk (sel : Key_selector.t) =
  let start = if sel.sel_or_equal then Types.next_key sel.sel_key else sel.sel_key in
  let start = if start > Types.key_space_end then Types.key_space_end else start in
  if sel.sel_offset >= 1 then (`Forward, start, sel.sel_offset)
  else (`Reverse, start, 1 - sel.sel_offset)

(* Resolution against storage alone: walk shard fragments in scan order,
   asking each team to advance the walk ([Storage_get_key]); a fragment
   that exhausts without resolving reports how many keys it consumed and
   the walk continues in the next shard. The MVCC window on the server
   makes this exact at the transaction's read version. *)
let storage_resolve t (version, rv_epoch) ~start ~reverse ~need =
  let db = t.db in
  let rec whole retries =
    let from, until = if reverse then ("", start) else (start, Types.key_space_end) in
    let frags =
      let fs = Shard_map.shards_for_range db.ctx.Context.shard_map ~from ~until in
      if reverse then List.rev fs else fs
    in
    let rec walk frags need =
      match frags with
      | [] -> Future.return None
      | (f, u, team) :: rest ->
          let* reply =
            with_failover db ~team (fun ss ->
                let ep = db.ctx.Context.storage_eps.(ss) in
                let* r =
                  Context.rpc db.ctx ~timeout:Params.client_read_timeout
                    ~from:db.proc ep
                    (Message.Storage_get_key
                       {
                         gk_from = f;
                         gk_until = u;
                         gk_reverse = reverse;
                         gk_start = start;
                         gk_need = need;
                         gk_version = version;
                         gk_epoch = rv_epoch;
                       })
                in
                match r with
                | Message.Storage_get_key_reply { kr_key; kr_seen } ->
                    Future.return (kr_key, kr_seen)
                | _ -> Future.fail (Error.Fdb Error.Timed_out))
          in
          (match reply with
          | Some k, _ -> Future.return (Some k)
          | None, seen -> walk rest (need - seen))
    in
    Future.catch
      (fun () -> walk frags need)
      (function
        | Error.Fdb Error.Wrong_shard when retries > 0 -> whole (retries - 1)
        | e -> Future.fail e)
  in
  whole 3

(* Resolution through the RYW merge: when the transaction has buffered
   writes or clears the storage answer alone is wrong, so walk merged
   batches instead. *)
let merged_nth t snap ~start ~reverse ~need =
  let rec loop ~from ~until need =
    if from >= until then Future.return None
    else
      let* rows, continuation =
        read_merged t ~snap ~from ~until ~reverse ~row_limit:need
          ~byte_limit:Params.range_bytes_want_all ~conflict:false
      in
      let n = List.length rows in
      if n >= need then Future.return (Some (fst (List.nth rows (need - 1))))
      else
        match continuation with
        | None -> Future.return None
        | Some c ->
            let from, until = if reverse then (from, c) else (c, until) in
            loop ~from ~until (need - n)
  in
  if reverse then loop ~from:"" ~until:start need
  else loop ~from:start ~until:Types.key_space_end need

(* Resolve a selector to a concrete key, clamped to [""] /
   [Types.key_space_end] when the walk runs off the edge of the key space
   (the standard FDB clamp). *)
let resolve_key t snap sel =
  let dir, start, need = selector_walk sel in
  let reverse = dir = `Reverse in
  let* resolved =
    if KeyMap.is_empty t.writes && t.cleared = [] then
      storage_resolve t snap ~start ~reverse ~need
    else merged_nth t snap ~start ~reverse ~need
  in
  Future.return
    (match resolved with
    | Some k -> k
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
      read_merged t ~snap ~from ~until ~reverse:q.rq_reverse ~row_limit
        ~byte_limit ~conflict:(not q.rq_snapshot)
    in
    Future.return { batch_rows = rows; batch_continuation = continuation }

(* Drain the query to a list: conflict on the whole span up front (the
   result logically depends on all of it), then loop [read_merged] batches,
   stitching continuations, until the range is exhausted or [rq_limit] rows
   are in hand. *)
let range_all t (q : Range_query.t) =
  check_not_committed t;
  let* from, until = query_bounds t q in
  if from >= until then Future.return []
  else begin
    let* snap = snapshot_info t in
    if not q.rq_snapshot then add_read_conflict_range t ~from ~until;
    let reverse = q.rq_reverse in
    let rec loop ~from ~until acc collected =
      let remaining = q.rq_limit - collected in
      if remaining <= 0 then Future.return (List.concat (List.rev acc))
      else begin
        let row_limit, byte_limit = budgets q.rq_mode ~rows:remaining in
        let* rows, continuation =
          read_merged t ~snap ~from ~until ~reverse ~row_limit ~byte_limit
            ~conflict:false
        in
        let acc = rows :: acc in
        match continuation with
        | None -> Future.return (List.concat (List.rev acc))
        | Some c ->
            let from, until = if reverse then (from, c) else (c, until) in
            if from >= until then Future.return (List.concat (List.rev acc))
            else loop ~from ~until acc (collected + List.length rows)
      end
    in
    loop ~from ~until [] 0
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
      | Some ep -> Future.return (Some ep)
      | None ->
          let* () = refresh t.db in
          Future.return (pick_proxy t.db)
    in
    match proxy with
    | None -> Error.fail Error.Timed_out (* never sent: definitely not committed *)
    | Some ep -> (
        let* reply =
          Future.catch
            (fun () ->
              Context.rpc t.db.ctx ~timeout:8.0 ~from:t.db.proc ep
                (Message.Commit_req req))
            (function
              | Engine.Timed_out | Error.Fdb Error.Wrong_epoch ->
                  (* The proxy may belong to a dead generation: refresh, or
                     a client that only sends blind writes (no GRV step)
                     would keep sending to it forever. *)
                  let* () = refresh t.db in
                  Error.fail Error.Commit_unknown_result
              | Error.Fdb Error.Database_locked ->
                  (* Definite no-commit from a proxy of a dead generation:
                     refresh so the retry loop reaches the new proxies
                     (blind writes have no GRV step to do it for them). *)
                  let* () = refresh t.db in
                  Error.fail Error.Database_locked
              | e -> Future.fail e)
        in
        match reply with
        | Message.Commit_reply version -> Future.return version
        | _ -> Error.fail Error.Commit_unknown_result)
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
let watch_key w = w.wt_key

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
          let* reply =
            with_failover db ~team (fun ss ->
                let ep = db.ctx.Context.storage_eps.(ss) in
                let* r =
                  Context.rpc db.ctx
                    ~timeout:(Params.watch_poll_timeout +. 1.0)
                    ~from:db.proc ep
                    (Message.Ss_watch
                       { w_key = w.wt_key; w_version = version; w_epoch = epoch })
                in
                match r with
                | Message.Ss_watch_reply { wr_fired; wr_version } ->
                    Future.return (wr_fired, wr_version)
                | _ -> Future.fail (Error.Fdb Error.Timed_out))
          in
          match reply with
          | true, v ->
              Trace.emit "client_watch_fire"
                [ ("key", String.escaped w.wt_key); ("v", Int64.to_string v) ];
              ignore (Future.try_fulfill w.wt_promise () : bool);
              Future.return None
          | false, v -> Future.return (Some v))
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

let run db ?max_attempts ?options f =
  let options = Option.value options ~default:default_options in
  let retry_limit =
    match (options.opt_retry_limit, max_attempts) with
    | Some n, _ -> n
    | None, Some n -> n
    | None, None -> 64
  in
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
          when Error.is_retryable e && n < retry_limit
               && (match deadline with
                  | None -> true
                  | Some d -> Engine.now () < d) ->
            let delay = Float.min backoff 1.0 +. Engine.random_float 0.05 in
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
  type t = Error.t =
    | Not_committed
    | Commit_unknown_result
    | Transaction_too_old
    | Future_version
    | Process_behind
    | Wrong_shard
    | Timed_out
    | Database_locked
    | Key_too_large
    | Value_too_large
    | Transaction_too_large
    | Key_outside_legal_range
    | Used_during_commit
    | Wrong_epoch
    | Internal of string

  let retryable = Error.is_retryable
  let classify = classify_exn
  let to_string = Error.to_string
  let pp = Error.pp
  let fail = Error.fail
end
