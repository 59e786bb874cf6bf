open Fdb_sim
open Future.Syntax
module Det_tbl = Fdb_util.Det_tbl

type meta = {
  m_epoch : Types.epoch;
  m_id : int;
  m_start_lsn : Types.version;
  m_endpoint : int;
}

type t = {
  mutable proc : Process.t;
  epoch : Types.epoch;
  id : int;
  disk : Disk.t;
  wal : string;
  floor_file : string;
  mutable floor : Types.version; (* highest pruned LSN; chain resumes here *)
  mutable stopped : bool;
  mutable dv : Types.version; (* durable, chain-contiguous *)
  mutable rcv : Types.version; (* received, chain-contiguous *)
  mutable kcv : Types.version;
  (* All entries by LSN (seeds + pushes); enumerated during prune and
     recovery hand-off, so iteration order must be LSN-defined. *)
  entries : (Types.version, Message.log_entry) Det_tbl.t;
  (* Pushes that arrived before their predecessor, keyed by the missing
     prev LSN, with the reply promise their push RPC is blocked on. With a
     pipelined proxy this is a hot path: batch N+1's push routinely lands
     while batch N is still on the wire. *)
  pending : (Types.version, Message.log_entry * (Types.version, Error.t) result Future.promise) Det_tbl.t;
  (* Per-tag view: the unpopped entries holding the tag, newest first. A
     peek reads the tag's mutations out of each entry it returns. *)
  per_tag : (Types.tag, (Types.version * Message.log_entry) list ref) Hashtbl.t;
  pop_floor : (Types.tag, Types.version) Det_tbl.t;
  (* Long-poll peeks past [rcv], oldest first: (tag, from_version, reply).
     Any push that advances [rcv] past a peek's version answers it. *)
  mutable parked_peeks :
    (Types.tag * Types.version * (Message.peek_reply, Error.t) result Future.promise) list;
  (* Records whose append was issued but that no sync has covered yet,
     with their promises. *)
  mutable waiting_sync : (Types.version * unit Future.promise) list;
  mutable sync_scheduled : bool; (* a sync is in flight *)
  (* The DV the first [Log_lock] reply reported ([Int64.max_int] while
     unlocked). A push is never acknowledged above it: a record accepted
     before the lock may become durable after it, but the recovery may
     already have chosen a version below it. *)
  mutable ack_limit : Types.version;
  mutable unpopped_bytes : int;
  watch : unit Failure_watch.t; (* the sequencer's long-poll on us *)
  (* metrics plane *)
  obs_append_lat : Fdb_obs.Registry.timer;
  obs_sync_batch : Fdb_obs.Registry.timer;
  obs_pushes : Fdb_obs.Registry.counter;
  obs_push_bytes : Fdb_obs.Registry.counter;
  obs_dv : Fdb_obs.Registry.gauge;
  obs_rcv : Fdb_obs.Registry.gauge;
  obs_unpopped : Fdb_obs.Registry.gauge;
}

let parked_peeks t = List.length t.parked_peeks

(* The callers' RPC timeouts: a proxy's push, a storage server's peek. *)
let push_timeout = 3.0
let peek_timeout = 1.0

(* A parked peek is answered (empty, at the current version) after half
   the peek timeout, so the reply beats the caller's timeout by a wide
   margin. *)
let peek_park_bound = peek_timeout /. 2.0

(* Per-generation file name: one machine's log disk may host LogServers
   of several epochs (old stopped ones await recovery hand-off). *)
let wal_file ~epoch ~id = Printf.sprintf "tlog-%d-%d.wal" epoch id
let floor_file_name ~epoch ~id = Printf.sprintf "tlog-%d-%d.floor" epoch id

let logs_for_tag ~n_logs ~replication tag =
  List.init (min replication n_logs) (fun i -> (tag + i) mod n_logs)

let replicates ~n_logs ~replication li tag =
  (li - (tag mod n_logs) + n_logs) mod n_logs < min replication n_logs

type Disk.record += Wal_entry of Message.log_entry

let entry_bytes (e : Message.log_entry) =
  List.fold_left
    (fun acc tm -> acc + Fdb_kv.Mutation.byte_size tm.Message.tm_mutation)
    0 e.Message.le_payload

(* A WAL record is charged its header (LSN, previous LSN, KCV: 8 bytes
   each) plus its mutations' bytes. *)
let append_entry t (e : Message.log_entry) =
  Disk.append t.disk t.wal ~bytes:(24 + entry_bytes e) (Wal_entry e)

(* An entry, and each of its mutations, whose every tag passes [keep] is
   returned itself, not copied: a hand-off with nothing popped shares the
   log it hands off. *)
let keep_tags keep (e : Message.log_entry) =
  let whole (tm : Message.tagged_mutation) =
    tm.Message.tm_tags <> [] && List.for_all keep tm.Message.tm_tags
  in
  if e.Message.le_payload <> [] && List.for_all whole e.Message.le_payload then Some e
  else
    let payload =
      List.filter_map
        (fun (tm : Message.tagged_mutation) ->
          if whole tm then Some tm
          else
            match List.filter keep tm.Message.tm_tags with
            | [] -> None
            | tags -> Some { tm with Message.tm_tags = tags })
        e.Message.le_payload
    in
    if payload = [] then None else Some { e with Message.le_payload = payload }

let floor_of t tag = Option.value (Det_tbl.find_opt t.pop_floor tag) ~default:Int64.min_int

let tag_mutations tag (e : Message.log_entry) =
  List.filter_map
    (fun tm -> if List.mem tag tm.Message.tm_tags then Some tm.Message.tm_mutation else None)
    e.Message.le_payload

let tag_bytes tag (e : Message.log_entry) =
  List.fold_left
    (fun acc tm ->
      if List.mem tag tm.Message.tm_tags then
        acc + Fdb_kv.Mutation.byte_size tm.Message.tm_mutation
      else acc)
    0 e.Message.le_payload

(* Each tag's stream is a view into the entries: indexing references an
   entry once per tag it holds and copies nothing. An entry's LSN is indexed
   once, so a list head at this LSN can only come from this same walk. *)
let index_payload t (e : Message.log_entry) =
  let lsn = e.Message.le_lsn in
  List.iter
    (fun { Message.tm_tags; tm_mutation } ->
      let size = Fdb_kv.Mutation.byte_size tm_mutation in
      List.iter
        (fun tag ->
          let l =
            match Hashtbl.find_opt t.per_tag tag with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add t.per_tag tag l;
                l
          in
          (match !l with (v, _) :: _ when v = lsn -> () | older -> l := (lsn, e) :: older);
          t.unpopped_bytes <- t.unpopped_bytes + size)
        tm_tags)
    e.Message.le_payload

(* Group commit: one sync in flight. It covers every record appended
   before it was issued; the records appended while it runs ride the next
   one, issued as soon as it returns. *)
let rec schedule_sync t =
  if not t.sync_scheduled then begin
    t.sync_scheduled <- true;
    let extra = Buggify.delay ~p:0.03 "tlog_slow_sync" /. 10.0 in
    Engine.spawn ~process:t.proc "tlog-sync" (fun () ->
        let* () = if extra > 0.0 then Engine.sleep extra else Future.return () in
        let batch = List.rev t.waiting_sync in
        t.waiting_sync <- [];
        Fdb_obs.Registry.observe t.obs_sync_batch (float_of_int (List.length batch));
        let* () = Disk.sync t.disk t.wal in
        List.iter
          (fun (lsn, promise) ->
            if lsn > t.dv then t.dv <- lsn;
            (* A false fulfil would lose a durability ack: trace it. *)
            if not (Future.try_fulfill promise ()) then
              Trace.emit "tlog_sync_ack_lost" [ ("lsn", Int64.to_string lsn) ])
          batch;
        t.sync_scheduled <- false;
        if t.waiting_sync <> [] then schedule_sync t;
        Future.return ())
  end

(* The record joins the sync batch as soon as its append is issued: the
   disk serves requests in order, so a sync issued after the append covers
   it. *)
let persist_entry t (e : Message.log_entry) =
  let t0 = Engine.now () in
  let appended = append_entry t e in
  let fut, promise = Future.make ~label:"tlog.sync_wait" () in
  t.waiting_sync <- (e.Message.le_lsn, promise) :: t.waiting_sync;
  schedule_sync t;
  let* () = appended in
  Future.map fut (fun () ->
      Fdb_obs.Registry.observe t.obs_append_lat (Engine.now () -. t0);
      Fdb_obs.Registry.set_gauge t.obs_dv (Int64.to_float t.dv))

(* The tag's list is newest first, so the entries a peek wants are a
   prefix of it: the cost is the entries returned, not the backlog. *)
let tag_entries t tag ~from_version =
  let floor = floor_of t tag in
  let rec take acc = function
    | (v, e) :: rest when v >= from_version && v > floor ->
        take ((v, tag_mutations tag e) :: acc) rest
    | _ -> acc
  in
  match Hashtbl.find_opt t.per_tag tag with None -> [] | Some l -> take [] !l

let peek_reply t tag ~from_version =
  Ok { Message.pk_entries = tag_entries t tag ~from_version; pk_end = t.rcv; pk_kcv = t.kcv }

(* Answer every parked peek that [rcv] has reached, whatever its tag: an
   idle tag's storage server still needs its version to move. *)
let wake_peeks t =
  if t.parked_peeks <> [] then begin
    let ready, parked =
      List.partition (fun (_, from_version, _) -> from_version <= t.rcv) t.parked_peeks
    in
    t.parked_peeks <- parked;
    List.iter
      (fun (tag, from_version, promise) ->
        ignore (Future.try_fulfill promise (peek_reply t tag ~from_version) : bool))
      ready
  end

(* The reply to a push of [lsn] once it is durable: our durable version. *)
let push_reply t lsn =
  if lsn > t.ack_limit then Error Error.Wrong_epoch else Ok (min t.dv t.ack_limit)

(* Accept an in-chain-order record: index it, persist it, and return the
   durability future. Then drain any pending successors and answer the
   peeks the new [rcv] has reached. *)
let rec accept t (e : Message.log_entry) =
  Det_tbl.replace t.entries e.Message.le_lsn e;
  t.rcv <- e.Message.le_lsn;
  if e.Message.le_kcv > t.kcv then t.kcv <- e.Message.le_kcv;
  index_payload t e;
  Fdb_obs.Registry.incr t.obs_pushes;
  Fdb_obs.Registry.set_gauge t.obs_rcv (Int64.to_float t.rcv);
  Fdb_obs.Registry.set_gauge t.obs_unpopped (float_of_int t.unpopped_bytes);
  let durable = persist_entry t e in
  (match Det_tbl.find_opt t.pending e.Message.le_lsn with
  | Some (successor, promise) ->
      Det_tbl.remove t.pending e.Message.le_lsn;
      (* Unpark the successor: its push RPC replies once its own record is
         durable (the group-commit sync covers both appends). *)
      let succ_durable = accept t successor in
      Future.on_resolve succ_durable (fun _ ->
          if not (Future.try_fulfill promise (push_reply t successor.Message.le_lsn))
          then
            Trace.emit "tlog_parked_ack_lost"
              [ ("lsn", Int64.to_string successor.Message.le_lsn) ])
  | None -> ());
  wake_peeks t;
  durable

(* Long poll: hold the peek until a push passes it, the server is locked,
   or [peek_park_bound] expires. The reply promise is deliberately
   unlabeled: the park timer guarantees its resolution. *)
let park_peek t tag ~from_version =
  let fut, promise = Future.make () in
  t.parked_peeks <- t.parked_peeks @ [ (tag, from_version, promise) ];
  Engine.schedule ~after:peek_park_bound ~process:t.proc (fun () ->
      if Future.is_pending fut then begin
        t.parked_peeks <- List.filter (fun (_, _, p) -> p != promise) t.parked_peeks;
        Future.fulfill promise (peek_reply t tag ~from_version)
      end);
  fut

let do_pop t tag up_to =
  let old_floor = floor_of t tag in
  if up_to > old_floor then begin
    Det_tbl.replace t.pop_floor tag up_to;
    match Hashtbl.find_opt t.per_tag tag with
    | None -> ()
    | Some l ->
        let kept, dropped = List.partition (fun (v, _) -> v > up_to) !l in
        l := kept;
        List.iter (fun (_, e) -> t.unpopped_bytes <- t.unpopped_bytes - tag_bytes tag e) dropped
  end

(* Discard fully-popped entries (the paper's log GC): an entry is dead once
   every tag this server has seen traffic for has popped past it. Only the
   dead LSN prefix goes: the WAL drops records by count from its head, so
   a dead entry above a live one (a tag whose storage server is down) must
   wait for it. The new chain floor is made durable BEFORE records are
   dropped — otherwise a rebooted server would understate its durable
   version and drag the next recovery's RV below acknowledged commits. *)
let prune t =
  if Det_tbl.length t.pop_floor > 0 then begin
    let global_floor =
      Det_tbl.fold (fun _ v acc -> min v acc) t.pop_floor Int64.max_int
    in
    let dead lsn (e : Message.log_entry) =
      lsn <= global_floor
      && List.for_all
           (fun tm -> List.for_all (fun tag -> lsn <= floor_of t tag) tm.Message.tm_tags)
           e.Message.le_payload
    in
    (* The dead prefix, newest first. *)
    let rec prefix acc = function
      | (lsn, e) :: rest when dead lsn e -> prefix (lsn :: acc) rest
      | _ -> acc
    in
    match prefix [] (Det_tbl.to_sorted_list t.entries) with
    | [] -> Future.return ()
    | doomed ->
        let new_floor = max t.floor (List.hd doomed) in
        let floor_bytes = Types.version_to_bytes new_floor in
        let* () =
          Disk.write_file t.disk t.floor_file ~bytes:(String.length floor_bytes)
            (Disk.Raw floor_bytes)
        in
        let* () = Disk.sync t.disk t.floor_file in
        (* Monotone re-read after the disk yields (rule R5): never let a
           slow cleanup regress a floor a faster one already advanced. *)
        if new_floor > t.floor then t.floor <- new_floor;
        List.iter (Det_tbl.remove t.entries) doomed;
        Disk.drop_prefix t.disk t.wal (List.length doomed);
        Future.return ()
  end
  else Future.return ()

let prune_loop t =
  let rec loop () =
    let* () = Engine.sleep 2.0 in
    if t.stopped then Future.return ()
    else
      let* () = prune t in
      loop ()
  in
  loop ()

(* Everything not yet popped and already durable, for recovery hand-off:
   each mutation keeps only its unpopped tags and goes once none is left.
   Det_tbl.fold ascending + cons yields a descending-LSN list (recovery
   re-sorts after merging across servers). *)
let unpopped_durable_entries t =
  Det_tbl.fold
    (fun lsn (e : Message.log_entry) acc ->
      if lsn > t.dv then acc
      else
        match keep_tags (fun tag -> lsn > floor_of t tag) e with
        | Some e -> e :: acc
        | None -> acc)
    t.entries []

let handle (type r) t (req : r Message.req) : (r, Error.t) result Future.t =
  match req with
  | Message.Wait_failure ->
      if t.stopped then Future.return (Error Error.Wrong_epoch)
      else Failure_watch.hold t.watch Fun.id
  | Message.Log_push { lp_epoch; lp_entry } ->
      if t.stopped || lp_epoch <> t.epoch then Future.return (Error Error.Wrong_epoch)
      else if Det_tbl.mem t.entries lp_entry.Message.le_lsn then
        (* Duplicate push: wait for durability of what we already have. *)
        if t.dv >= lp_entry.Message.le_lsn then
          Future.return (push_reply t lp_entry.Message.le_lsn)
        else
          let fut, promise = Future.make ~label:"tlog.sync_wait" () in
          t.waiting_sync <- (lp_entry.Message.le_lsn, promise) :: t.waiting_sync;
          schedule_sync t;
          Future.map fut (fun () -> push_reply t lp_entry.Message.le_lsn)
      else begin
        let bytes = entry_bytes lp_entry in
        Fdb_obs.Registry.incr ~by:bytes t.obs_push_bytes;
        let* () =
          Engine.cpu t.proc
            (Params.log_per_push +. Params.cpu (Params.log_per_byte *. float_of_int bytes))
        in
        if lp_entry.Message.le_prev = t.rcv then
          let* () = accept t lp_entry in
          Future.return (push_reply t lp_entry.Message.le_lsn)
        else if lp_entry.Message.le_prev > t.rcv then begin
          (* Out of order: park with our reply promise; [accept] of the
             predecessor fulfills it once this record is durable in order,
             and [Log_lock] fails it if the epoch ends first. (Replaces a
             1ms polling loop — with the pipelined proxy parking is the
             common case, not a rarity.) *)
          if Det_tbl.mem t.pending lp_entry.Message.le_prev then begin
            (* A parked promise must never be silently overwritten (lost
               wakeup); a second push on the same prev slot only happens on
               duplicated traffic, which may safely fail. *)
            Trace.emit "tlog_park_dup"
              [ ("lsn", Int64.to_string lp_entry.Message.le_lsn) ];
            Future.return (Error (Error.Internal "tlog: park slot taken"))
          end
          else begin
            let fut, promise = Future.make ~label:"tlog.park" () in
            Det_tbl.replace t.pending lp_entry.Message.le_prev (lp_entry, promise);
            Trace.emit "tlog_park"
              [ ("lsn", Int64.to_string lp_entry.Message.le_lsn);
                ("prev", Int64.to_string lp_entry.Message.le_prev) ];
            (* Once the proxy's RPC has timed out, nobody waits for this
               push, and its predecessor may never come (its proxy's
               generation ended): release the slot with a rejection. *)
            let prev = lp_entry.Message.le_prev in
            Engine.schedule ~after:push_timeout ~process:t.proc (fun () ->
                match Det_tbl.find_opt t.pending prev with
                | Some (_, p) when p == promise ->
                    Det_tbl.remove t.pending prev;
                    Future.fulfill promise
                      (Error (Error.Internal "tlog: predecessor never came"))
                | Some _ | None -> ());
            fut
          end
        end
        else Future.return (Error (Error.Internal "tlog: chain regression"))
      end
  | Message.Log_peek { tag; from_version } ->
      if t.stopped then Future.return (Error Error.Wrong_epoch)
      else if from_version > t.rcv then park_peek t tag ~from_version
      else Future.return (peek_reply t tag ~from_version)
  | Message.Log_pop { tag; up_to } ->
      do_pop t tag up_to;
      Future.return (Ok ())
  | Message.Log_lock { ll_epoch } ->
      if ll_epoch > t.epoch then begin
        if not t.stopped then begin
          t.stopped <- true;
          t.ack_limit <- t.dv;
          (* Parked pushes can never be unparked now: reply with a definite
             rejection rather than letting their RPCs run out the clock
             (a broken handler future would send no reply at all). *)
          let parked = Det_tbl.fold (fun _ v acc -> v :: acc) t.pending [] in
          Det_tbl.reset t.pending;
          List.iter
            (fun ((e : Message.log_entry), promise) ->
              if not (Future.try_fulfill promise (Error Error.Wrong_epoch))
              then
                Trace.emit "tlog_parked_ack_lost"
                  [ ("lsn", Int64.to_string e.Message.le_lsn) ])
            parked;
          let peeks = t.parked_peeks in
          t.parked_peeks <- [];
          List.iter
            (fun (_, _, promise) ->
              ignore (Future.try_fulfill promise (Error Error.Wrong_epoch) : bool))
            peeks;
          Failure_watch.fail t.watch;
          Trace.emit "tlog_locked"
            [ ("id", string_of_int t.id); ("epoch", string_of_int t.epoch);
              ("by", string_of_int ll_epoch); ("dv", Int64.to_string t.dv) ]
        end;
        Future.return
          (Ok { Message.lk_kcv = t.kcv; lk_dv = t.dv; lk_entries = unpopped_durable_entries t })
      end
      else Future.return (Error Error.Wrong_epoch)
  | Message.Log_seed { ls_entries } ->
      (* Recovery hand-off: pre-existing durable history. Persist before
         acking; it is already below our start LSN so it joins per-tag
         indexes but not the chain. *)
      List.iter
        (fun (e : Message.log_entry) ->
          if not (Det_tbl.mem t.entries e.Message.le_lsn) then begin
            Det_tbl.replace t.entries e.Message.le_lsn e;
            index_payload t e
          end)
        ls_entries;
      let* () = Future.all_unit (List.map (append_entry t) ls_entries) in
      let* () = Disk.sync t.disk t.wal in
      Future.return (Ok ())
  | _ -> Future.return (Error (Error.Internal "tlog: unexpected message"))

(* A LogServer whose chain starts at [start_lsn], before any record. *)
let make ctx proc ~disk ~epoch ~id ~start_lsn ~floor ~stopped =
  let metric kind name =
    kind ctx.Context.metrics ~role:Fdb_obs.Registry.Log ~process:proc.Process.pid name
  in
  {
    proc;
    epoch;
    id;
    disk;
    wal = wal_file ~epoch ~id;
    floor_file = floor_file_name ~epoch ~id;
    floor;
    stopped;
    dv = start_lsn;
    rcv = start_lsn;
    kcv = 0L;
    entries = Det_tbl.create ~size:1024 ();
    pending = Det_tbl.create ~size:16 ();
    parked_peeks = [];
    per_tag = Hashtbl.create 64;
    pop_floor = Det_tbl.create ~size:64 ();
    waiting_sync = [];
    sync_scheduled = false;
    ack_limit = Int64.max_int;
    unpopped_bytes = 0;
    watch = Failure_watch.create proc;
    obs_append_lat = metric Fdb_obs.Registry.histogram "append_latency";
    obs_sync_batch = metric Fdb_obs.Registry.histogram "sync_batch_size";
    obs_pushes = metric Fdb_obs.Registry.counter "pushes";
    obs_push_bytes = metric Fdb_obs.Registry.counter "push_bytes";
    obs_dv = metric Fdb_obs.Registry.gauge "durable_version";
    obs_rcv = metric Fdb_obs.Registry.gauge "received_version";
    obs_unpopped = metric Fdb_obs.Registry.gauge "unpopped_bytes";
  }

(* Rebuild from disk after a crash: keep the contiguous chain prefix (plus
   seeds, which sit below start_lsn); serve only recovery traffic. *)
let resurrect ctx proc ~disk ~(meta : meta) =
  let* records = Disk.read_all disk (wal_file ~epoch:meta.m_epoch ~id:meta.m_id) in
  let* floor_bytes =
    Disk.read_file disk (floor_file_name ~epoch:meta.m_epoch ~id:meta.m_id)
  in
  let floor =
    match floor_bytes with
    | Some (Disk.Raw b) when String.length b >= 8 ->
        max meta.m_start_lsn (Types.version_of_bytes b)
    | _ -> meta.m_start_lsn
  in
  let t =
    make ctx proc ~disk ~epoch:meta.m_epoch ~id:meta.m_id ~start_lsn:meta.m_start_lsn ~floor
      ~stopped:true
  in
  (* Seeds (lsn <= start) and already-pruned-floor records are durable
     history; chain records must form a contiguous prefix from the floor
     (collected in a scratch table by previous LSN, not [t.pending], which
     holds live parked pushes with reply promises). Of two records naming
     the same predecessor the higher LSN wins, and of two copies of one
     LSN the later write. *)
  let by_prev : (Types.version, Message.log_entry) Det_tbl.t =
    Det_tbl.create ~size:1024 ()
  in
  List.iter
    (function
      | Wal_entry e ->
          if e.Message.le_lsn <= floor && not (Det_tbl.mem t.entries e.Message.le_lsn)
          then begin
            Det_tbl.replace t.entries e.Message.le_lsn e;
            index_payload t e
          end
          else if e.Message.le_lsn > floor then begin
            match Det_tbl.find_opt by_prev e.Message.le_prev with
            | Some kept when kept.Message.le_lsn > e.Message.le_lsn -> ()
            | _ -> Det_tbl.replace by_prev e.Message.le_prev e
          end
      | _ -> invalid_arg "Log_server: not a WAL record")
    records;
  let rec chain v =
    match Det_tbl.find_opt by_prev v with
    | Some e ->
        let lsn = e.Message.le_lsn in
        Det_tbl.remove by_prev v;
        Det_tbl.replace t.entries lsn e;
        index_payload t e;
        if e.Message.le_kcv > t.kcv then t.kcv <- e.Message.le_kcv;
        chain lsn
    | None -> v
  in
  let dv = chain floor in
  t.dv <- dv;
  t.rcv <- dv;
  Fdb_obs.Registry.set_gauge t.obs_dv (Int64.to_float dv);
  Fdb_obs.Registry.set_gauge t.obs_rcv (Int64.to_float dv);
  Context.serve ctx meta.m_endpoint proc { handle = (fun req -> handle t req) };
  Trace.emit "tlog_resurrected"
    [ ("id", string_of_int meta.m_id); ("epoch", string_of_int meta.m_epoch);
      ("dv", Int64.to_string dv) ];
  Future.return t

let create ctx proc ~disk ~epoch ~id ~start_lsn =
  let ep = Network.fresh_endpoint ctx.Context.net in
  let meta = { m_epoch = epoch; m_id = id; m_start_lsn = start_lsn; m_endpoint = ep } in
  let t = make ctx proc ~disk ~epoch ~id ~start_lsn ~floor:start_lsn ~stopped:false in
  Disk.attach disk proc;
  Context.serve ctx ep proc { handle = (fun req -> handle t req) };
  Engine.spawn ~process:proc "tlog-prune" (fun () -> prune_loop t);
  (* The boot thunk captures the identity (modelling an on-disk manifest):
     after a crash the process comes back as a stopped log server able to
     serve recovery hand-off from whatever survived on disk. *)
  proc.Process.boot <-
    (fun () ->
      Engine.spawn ~process:proc "tlog-resurrect" (fun () ->
          let* r = resurrect ctx proc ~disk ~meta in
          r.proc <- proc;
          Future.return ()));
  (t, ep)
