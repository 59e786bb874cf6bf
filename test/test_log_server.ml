(* Direct LogServer unit tests: chain ordering, out-of-order pushes,
   duplicate deliveries, peek/pop, locking, GC + resurrection; the tagged
   push format against the per-tag build it replaced; the push's CPU
   charge; and the recovery hand-off merge. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Mutation = Fdb_kv.Mutation

(* A context with no cluster behind it, for driving roles directly. *)
let mini_ctx ?(config = Config.test_small) () =
  let net : Message.envelope Network.t = Network.create () in
  {
    Context.net;
    config;
    shard_map = Shard_map.build config;
    coordinator_eps = [];
    worker_eps = [||];
    storage_eps = [||];
    metrics = Fdb_obs.Registry.create ();
    dd_movement = false;
  }

let entry ~lsn ~prev ?(kcv = 0L) payload =
  { Message.le_lsn = lsn; le_prev = prev; le_kcv = kcv; le_payload = payload }

let tagged tags m = { Message.tm_tags = tags; tm_mutation = m }

let rpc_peek ctx ~from ep tag from_version =
  let+ { Message.pk_entries; pk_end; _ } =
    Context.rpc ctx ~timeout:5.0 ~from ep (Message.Log_peek { tag; from_version })
  in
  (pk_entries, pk_end)

(* [n] LogServers of one generation, each with its own process and disk,
   and a client process to drive them. *)
let log_servers ctx ~epoch ~start_lsn n =
  let machine = Process.fresh_machine 1 in
  let client = Process.create ~name:"pusher" machine in
  let eps =
    List.init n (fun id ->
        let proc = Process.create ~name:(Printf.sprintf "tlog-%d" id) machine in
        let disk = Disk.create () in
        snd (Log_server.create ctx proc ~disk ~epoch ~id ~start_lsn))
  in
  (client, eps)

let setup () =
  let ctx = mini_ctx () in
  let machine = Process.fresh_machine 1 in
  let proc = Process.create ~name:"tlog-test" machine in
  let client = Process.create ~name:"pusher" machine in
  let disk = Disk.create () in
  let _, ep = Log_server.create ctx proc ~disk ~epoch:1 ~id:0 ~start_lsn:0L in
  let push lsn prev payload =
    Context.rpc ctx ~timeout:5.0 ~from:client ep
      (Message.Log_push { lp_epoch = 1; lp_entry = entry ~lsn ~prev payload })
  in
  let peek tag from_version = rpc_peek ctx ~from:client ep tag from_version in
  (ctx, ep, client, proc, push, peek)

let test_in_order_push_and_peek () =
  let r =
    Engine.run (fun () ->
        let _, _, _, _, push, peek = setup () in
        let* dv1 = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let* dv2 = push 9L 5L [ tagged [ 0 ] (Mutation.Set ("b", "2")) ] in
        let* entries, pk_end = peek 0 1L in
        Future.return (dv1, dv2, List.map fst entries, pk_end))
  in
  let dv1, dv2, versions, pk_end = r in
  Alcotest.(check bool) "first ack durable" true (dv1 >= 5L);
  Alcotest.(check bool) "second ack durable" true (dv2 >= 9L);
  Alcotest.(check (list int64)) "peek in order" [ 5L; 9L ] versions;
  Alcotest.(check int64) "caught up" 9L pk_end

let test_out_of_order_pushes_ack_in_chain_order () =
  let r =
    Engine.run (fun () ->
        let _, _, _, _, push, _ = setup () in
        (* Deliver lsn 9 (prev 5) before lsn 5: the ack for 9 must wait for
           the chain, and its durable version must cover 9 only once 5 is
           durable too. *)
        let late = push 9L 5L [ tagged [ 0 ] (Mutation.Set ("b", "2")) ] in
        let* () = Engine.sleep 0.01 in
        Alcotest.(check bool) "9 not acked before 5 arrives" true (Future.is_pending late);
        let* _ = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        late)
  in
  Alcotest.(check bool) "chain-contiguous durability" true (r >= 9L)

let test_duplicate_push_idempotent () =
  let r =
    Engine.run (fun () ->
        let _, _, _, _, push, peek = setup () in
        let* _ = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let* _ = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let* entries, _ = peek 0 1L in
        Future.return (List.length entries))
  in
  Alcotest.(check int) "no duplicate entries" 1 r

let test_pop_discards () =
  let r =
    Engine.run (fun () ->
        let ctx, ep, client, _, push, peek = setup () in
        let* _ = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let* _ = push 9L 5L [ tagged [ 0 ] (Mutation.Set ("b", "2")) ] in
        let* _ =
          Context.rpc ctx ~timeout:5.0 ~from:client ep
            (Message.Log_pop { tag = 0; up_to = 5L })
        in
        let* entries, _ = peek 0 1L in
        Future.return (List.map fst entries))
  in
  Alcotest.(check (list int64)) "popped prefix gone" [ 9L ] r

let test_lock_stops_pushes_and_reports () =
  let r =
    Engine.run (fun () ->
        let ctx, ep, client, _, push, _ = setup () in
        let* _ = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let* { Message.lk_dv = dv; lk_entries; _ } =
          Context.rpc ctx ~timeout:5.0 ~from:client ep (Message.Log_lock { ll_epoch = 2 })
        in
        let n_entries = List.length lk_entries in
        let* rejected =
          Future.catch
            (fun () ->
              let* _ = push 9L 5L [ tagged [ 0 ] (Mutation.Set ("b", "2")) ] in
              Future.return false)
            (function Error.Fdb Error.Wrong_epoch -> Future.return true | e -> raise e)
        in
        Future.return (dv, n_entries, rejected))
  in
  let dv, n, rejected = r in
  Alcotest.(check bool) "dv covers durable" true (dv >= 5L);
  Alcotest.(check int) "unpopped entries handed over" 1 n;
  Alcotest.(check bool) "post-lock push rejected" true rejected

(* The received-version gauge of the one LogServer in [ctx]. *)
let received_version ctx =
  match Fdb_obs.Registry.gauges ctx.Context.metrics ~role:Fdb_obs.Registry.Log "received_version" with
  | [ (_, v) ] -> Int64.of_float v
  | _ -> -1L

(* Resolve once the LogServer has accepted [lsn] (its sync still to come). *)
let rec until_received ctx lsn =
  if received_version ctx >= lsn then Future.return ()
  else
    let* () = Engine.sleep 1e-6 in
    until_received ctx lsn

(* A push accepted before a lock but made durable after it must not be
   acknowledged above the DV the lock reply reported: the recovery may
   already have chosen a version below it. *)
let test_lock_caps_in_flight_acks () =
  let lk_dv, reply =
    Engine.run (fun () ->
        let ctx, ep, client, _, push, _ = setup () in
        let pushed = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let* () = until_received ctx 5L in
        let* { Message.lk_dv; _ } =
          Context.rpc ctx ~timeout:5.0 ~from:client ep (Message.Log_lock { ll_epoch = 2 })
        in
        let* reply =
          Future.catch
            (fun () ->
              let* r = pushed in
              Future.return (Ok r))
            (fun e -> Future.return (Error e))
        in
        Future.return (lk_dv, reply))
  in
  Alcotest.(check int64) "locked while the sync was in flight" 0L lk_dv;
  match reply with
  | Ok durable_version ->
      Alcotest.failf "acked durable_version %Ld above the lock's DV %Ld" durable_version lk_dv
  | Error (Error.Fdb Error.Wrong_epoch) -> ()
  | Error e -> raise e

(* Group commit: the records appended while one sync runs ride the next
   sync together, not one sync each. *)
let test_sync_covers_appends_made_during_it () =
  let syncs, synced =
    Engine.run (fun () ->
        let ctx, _, _, _, push, _ = setup () in
        let first = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let* () = until_received ctx 5L in
        let rest =
          List.map
            (fun (lsn, prev) -> push lsn prev [ tagged [ 0 ] (Mutation.Set ("b", "2")) ])
            [ (9L, 5L); (13L, 9L); (17L, 13L) ]
        in
        let* _ = Future.all (first :: rest) in
        let module R = Fdb_obs.Registry in
        match R.histograms ctx.Context.metrics ~role:R.Log "sync_batch_size" with
        | [ (_, h) ] ->
            Future.return (Fdb_util.Histogram.count h, Fdb_util.Histogram.total h)
        | _ -> Future.return (-1, 0.0))
  in
  Alcotest.(check int) "two syncs for four records" 2 syncs;
  Alcotest.(check (float 0.0)) "each record synced once" 4.0 synced

let test_resurrect_after_prune () =
  (* The seed-502 regression at unit level: push, pop, wait for GC, crash,
     resurrect — the lock reply must still report the true durable version. *)
  let r =
    Engine.run (fun () ->
        let ctx, ep, client, proc, push, _ = setup () in
        let* _ = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let* _ = push 9L 5L [ tagged [ 0 ] (Mutation.Set ("b", "2")) ] in
        let* _ =
          Context.rpc ctx ~timeout:5.0 ~from:client ep
            (Message.Log_pop { tag = 0; up_to = 9L })
        in
        (* GC runs every 2 s. *)
        let* () = Engine.sleep 5.0 in
        Engine.reboot proc ~delay:0.2 ();
        let* () = Engine.sleep 1.0 in
        let+ { Message.lk_dv; _ } =
          Context.rpc ctx ~timeout:5.0 ~from:client ep (Message.Log_lock { ll_epoch = 2 })
        in
        lk_dv)
  in
  Alcotest.(check bool) "durable version survives prune + crash" true (r >= 9L)

(* The WAL holds the pushed entries themselves, each charged its 24-byte
   header (LSN, previous LSN, KCV) plus its mutations' bytes, and a
   resurrected server hands recovery the very entries pushed. *)
let test_wal_holds_entries () =
  let r =
    Engine.run (fun () ->
        let ctx = mini_ctx () in
        let machine = Process.fresh_machine 1 in
        let proc = Process.create ~name:"tlog-test" machine in
        let client = Process.create ~name:"pusher" machine in
        let disk = Disk.create () in
        let _, ep = Log_server.create ctx proc ~disk ~epoch:1 ~id:0 ~start_lsn:0L in
        let pushed =
          [ entry ~lsn:5L ~prev:0L [ tagged [ 0 ] (Mutation.Set ("a", String.make 3 'x')) ];
            entry ~lsn:9L ~prev:5L [ tagged [ 0; 1 ] (Mutation.Set ("b", String.make 3 'y')) ] ]
        in
        let* () =
          Future.all_unit
            (List.map
               (fun e ->
                 let+ _durable =
                   Context.rpc ctx ~timeout:5.0 ~from:client ep
                     (Message.Log_push { lp_epoch = 1; lp_entry = e })
                 in
                 ())
               pushed)
        in
        let charged = Disk.bytes_written disk in
        let* wal = Disk.read_all disk "tlog-1-0.wal" in
        let stored =
          List.map (function Log_server.Wal_entry e -> e | _ -> Alcotest.fail "foreign record") wal
        in
        Engine.reboot proc ~delay:0.2 ();
        let* () = Engine.sleep 1.0 in
        let+ { Message.lk_entries; _ } =
          Context.rpc ctx ~timeout:5.0 ~from:client ep (Message.Log_lock { ll_epoch = 2 })
        in
        (charged, pushed, stored, List.rev lk_entries))
  in
  let charged, pushed, stored, handed_off = r in
  Alcotest.(check int) "one record per push" (List.length pushed) (List.length stored);
  (* Two records: a header each, plus "a" and "b" with 3-byte values. *)
  Alcotest.(check (float 0.0)) "charged header plus mutations" (float_of_int ((2 * 24) + 4 + 4))
    charged;
  Alcotest.(check bool) "records are the pushed entries" true (List.for_all2 ( == ) pushed stored);
  (* Nothing is popped, so the hand-off shares the pushed entries. *)
  Alcotest.(check bool) "hand-off is the pushed entries" true
    (List.for_all2 ( == ) pushed handed_off)

let test_prune_keeps_live_records () =
  (* LSN 9 holds a tag that never pops (its storage server is down), while
     LSNs 5 and 12 pop. GC may drop only the dead prefix (LSN 5): dropping
     two WAL records by count would lose 9 and keep the dead 12, so the
     rebooted server's lock reply would lose 9's mutations. *)
  let r =
    Engine.run (fun () ->
        let ctx, ep, client, proc, push, _ = setup () in
        let* _ = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let* _ = push 9L 5L [ tagged [ 1 ] (Mutation.Set ("b", "2")) ] in
        let* _ = push 12L 9L [ tagged [ 0 ] (Mutation.Set ("c", "3")) ] in
        let* _ =
          Context.rpc ctx ~timeout:5.0 ~from:client ep
            (Message.Log_pop { tag = 0; up_to = 12L })
        in
        let* () = Engine.sleep 5.0 in
        Engine.reboot proc ~delay:0.2 ();
        let* () = Engine.sleep 1.0 in
        let+ { Message.lk_entries; _ } =
          Context.rpc ctx ~timeout:5.0 ~from:client ep (Message.Log_lock { ll_epoch = 2 })
        in
        List.map (fun e -> e.Message.le_lsn) lk_entries)
  in
  Alcotest.(check (list int64)) "unpopped records survive prune + crash" [ 12L; 9L ] r

(* ---------- long-poll peeks ---------- *)

(* A peek past the received version parks until a push reaches it, even a
   push that carries none of the peek's tag: the storage server needs its
   version to move either way. The reply comes within a network round trip
   of the push, well before the push's own durability ack. *)
let test_long_poll_wakes_on_any_push () =
  let r =
    Engine.run (fun () ->
        let _, _, _, _, push, peek = setup () in
        let* _ = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let parked = peek 0 6L in
        let* () = Engine.sleep 0.1 in
        let still_parked = Future.is_pending parked in
        let t_push = Engine.now () in
        let ack = push 9L 5L [ tagged [ 1 ] (Mutation.Set ("b", "2")) ] in
        let* entries, pk_end = parked in
        let waited = Engine.now () -. t_push in
        let acked_first = Future.is_resolved ack in
        let* _ = ack in
        (* The same for a push that does carry the tag. *)
        let parked = peek 0 10L in
        let* () = Engine.sleep 0.1 in
        let* _ = push 12L 9L [ tagged [ 0 ] (Mutation.Set ("c", "3")) ] in
        let* entries2, pk_end2 = parked in
        Future.return
          (still_parked, waited, acked_first, entries, pk_end, List.map fst entries2, pk_end2))
  in
  let still_parked, waited, acked_first, entries, pk_end, versions2, pk_end2 = r in
  Alcotest.(check bool) "peek parks past rcv" true still_parked;
  Alcotest.(check bool) "answered within a round trip" true (waited < 1e-3);
  Alcotest.(check bool) "before the push's durability ack" false acked_first;
  Alcotest.(check int) "no entries of another tag" 0 (List.length entries);
  Alcotest.(check int64) "version moves anyway" 9L pk_end;
  Alcotest.(check (list int64)) "own tag's entry" [ 12L ] versions2;
  Alcotest.(check int64) "caught up" 12L pk_end2

let test_long_poll_bound_expires () =
  let r =
    Engine.run (fun () ->
        let _, _, _, _, push, peek = setup () in
        let* _ = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let t0 = Engine.now () in
        let* entries, pk_end = peek 0 6L in
        Future.return (Engine.now () -. t0, entries, pk_end))
  in
  let waited, entries, pk_end = r in
  Alcotest.(check bool) "held for the park bound" true (waited >= 0.5);
  Alcotest.(check bool) "inside the caller's timeout" true (waited < Log_server.peek_timeout);
  Alcotest.(check int) "empty" 0 (List.length entries);
  Alcotest.(check int64) "at the current version" 5L pk_end

let test_lock_answers_parked_peeks () =
  let r =
    Engine.run (fun () ->
        let ctx, ep, client, _, push, peek = setup () in
        let* _ = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let parked = peek 0 6L in
        let* () = Engine.sleep 0.1 in
        let* _ =
          Context.rpc ctx ~timeout:5.0 ~from:client ep (Message.Log_lock { ll_epoch = 2 })
        in
        let t_lock = Engine.now () in
        Future.catch
          (fun () ->
            let* _ = parked in
            Future.return None)
          (function
            | Error.Fdb Error.Wrong_epoch -> Future.return (Some (Engine.now () -. t_lock))
            | e -> Future.fail e))
  in
  match r with
  | None -> Alcotest.fail "parked peek answered after the lock"
  | Some dt -> Alcotest.(check bool) "Wrong_epoch at once" true (dt < 1e-3)

(* Peekers on an idle log re-park every time the bound expires; each
   expired waiter must leave the list, or an idle log strands one per
   expiry. *)
let test_idle_log_holds_only_live_peeks () =
  let peekers = 3 in
  let r =
    Engine.run (fun () ->
        let ctx = mini_ctx () in
        let machine = Process.fresh_machine 1 in
        let proc = Process.create ~name:"tlog-idle" machine in
        let client = Process.create ~name:"peeker" machine in
        let disk = Disk.create () in
        let t, ep = Log_server.create ctx proc ~disk ~epoch:1 ~id:0 ~start_lsn:0L in
        let until = Engine.now () +. 10.0 in
        let rec peek_loop tag =
          if Engine.now () >= until then Future.return ()
          else
            let* _ = rpc_peek ctx ~from:client ep tag 1L in
            peek_loop tag
        in
        let* () = Future.all_unit (List.init peekers peek_loop) in
        Future.return (Log_server.parked_peeks t))
  in
  Alcotest.(check bool) "no stranded waiters" true (r <= peekers)

(* A storage server that adopts a new generation drops its peek to the old
   logs and peeks the new ones at the same virtual instant, not after a
   back-off. The new "log" records when the first peek reaches it. *)
let test_adopt_peeks_new_logs_at_once () =
  let r =
    Engine.run (fun () ->
        let ctx = mini_ctx () in
        let net = ctx.Context.net in
        let ss_ep = Network.fresh_endpoint net and coord_ep = Network.fresh_endpoint net in
        let ctx = { ctx with Context.coordinator_eps = [ coord_ep ]; storage_eps = [| ss_ep |] } in
        let machine = Process.fresh_machine 1 in
        let client = Process.create ~name:"recoverer" machine in
        let stub = Process.create ~name:"stubs" machine in
        (* An empty coordinated state: a pull with no logs learns nothing. *)
        let coordinator (type r) (req : r Message.req) : (r, Error.t) result Future.t =
          match req with
          | Message.Paxos_req _ ->
              Future.return (Ok (Fdb_paxos.Wire.Read_result { accepted = None }))
          | _ -> Future.return (Error (Error.Internal "stub coordinator"))
        in
        Context.serve ctx coord_ep stub { handle = coordinator };
        let old_proc = Process.create ~name:"tlog-old" machine in
        let _, old_ep =
          Log_server.create ctx old_proc ~disk:(Disk.create ()) ~epoch:1
            ~id:0 ~start_lsn:0L
        in
        let first_peek, reached = Future.make () in
        let new_ep = Network.fresh_endpoint net in
        let new_log (type r) (req : r Message.req) : (r, Error.t) result Future.t =
          match req with
          | Message.Log_peek _ ->
              ignore (Future.try_fulfill reached (Engine.now ()) : bool);
              Future.return (Ok { Message.pk_entries = []; pk_end = 0L; pk_kcv = 0L })
          | _ -> Future.return (Error (Error.Internal "stub log"))
        in
        Context.serve ctx new_ep stub { handle = new_log };
        let ss_proc = Process.create ~name:"ss" machine in
        let* _ss = Storage_server.create ctx ss_proc ~id:0 ~disk:(Disk.create ()) in
        let recover epoch logs =
          Context.rpc ctx ~timeout:5.0 ~from:client ss_ep
            (Message.Ss_recover
               { sr_epoch = epoch; sr_rv = 0L; sr_history = [ (epoch, 0L) ]; sr_logs = logs })
        in
        let* () = recover 1 [ (0, old_ep) ] in
        (* Long enough for the storage server's peek to park on the old log. *)
        let* () = Engine.sleep 0.1 in
        let* () = recover 2 [ (0, new_ep) ] in
        let* arrived = first_peek in
        let adopted =
          List.find
            (fun e ->
              e.Trace.te_name = "ss_adopt_state" && List.assoc_opt "epoch" e.Trace.te_fields = Some "2")
            (Trace.events ())
        in
        Future.return (arrived -. adopted.Trace.te_time))
  in
  (* One one-way network hop on a single machine; a back-off would be
     Params.storage_pull_backoff or more. *)
  Alcotest.(check bool) "peeks the new logs at once" true (r >= 0.0 && r < 1e-3)

(* ---------- the tagged push format ---------- *)

(* The per-tag build the proxy used before a push carried each mutation
   once: LogServer [li] received, for every tag it replicates, its own copy
   of that tag's mutations. Kept as the reference every per-tag stream must
   still match. *)
let per_tag_reference map ~n_logs ~replication muts =
  let per_log = Array.init n_logs (fun _ -> Hashtbl.create 8) in
  List.iter
    (fun m ->
      List.iter
        (fun tag ->
          List.iter
            (fun li ->
              let tbl = per_log.(li) in
              let prev = Option.value (Hashtbl.find_opt tbl tag) ~default:[] in
              Hashtbl.replace tbl tag (m :: prev))
            (List.init (min replication n_logs) (fun i -> (tag + i) mod n_logs)))
        (Shard_map.tags_for_mutation map m))
    muts;
  fun li tag -> List.rev (Option.value (Hashtbl.find_opt per_log.(li) tag) ~default:[])

let gen_key = QCheck.Gen.(string_size ~gen:char (int_range 1 3))

let gen_mutation =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Mutation.Set (k, v)) gen_key (string_size ~gen:printable (int_range 0 8)));
        (2, map (fun k -> Mutation.Clear k) gen_key);
        (1, map2 (fun a b -> Mutation.Clear_range (min a b, max a b)) gen_key gen_key);
      ])

let gen_batches = QCheck.Gen.(list_size (int_range 1 4) (list_size (int_range 0 12) gen_mutation))

let no_mutation_twice (e : Message.log_entry) =
  let ms = List.map (fun tm -> tm.Message.tm_mutation) e.Message.le_payload in
  List.for_all (fun m -> List.length (List.filter (fun m' -> m' == m) ms) = 1) ms

(* [keep_tags] keeps exactly what a tag-by-tag filter keeps, and returns
   the entry itself when it keeps every tag of it. *)
let qcheck_keep_tags =
  let reference keep (e : Message.log_entry) =
    let payload =
      List.filter_map
        (fun (tm : Message.tagged_mutation) ->
          match List.filter keep tm.Message.tm_tags with
          | [] -> None
          | tags -> Some { tm with Message.tm_tags = tags })
        e.Message.le_payload
    in
    if payload = [] then None else Some { e with Message.le_payload = payload }
  in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 4) (list_size (int_range 0 3) (int_range 0 5)))
        (list_size (int_range 0 6) (int_range 0 5)))
  in
  QCheck.Test.make ~name:"keep_tags shares what it keeps whole" ~count:200 (QCheck.make gen)
    (fun (tag_lists, dropped) ->
      let e =
        entry ~lsn:5L ~prev:0L
          (List.mapi (fun i tags -> tagged tags (Mutation.Set (string_of_int i, "v"))) tag_lists)
      in
      let keep tag = not (List.mem tag dropped) in
      let kept = Log_server.keep_tags keep e in
      let whole =
        List.for_all (fun tags -> tags <> [] && List.for_all keep tags) tag_lists
      in
      kept = reference keep e
      && (tag_lists = [] || (not whole) || match kept with Some k -> k == e | None -> false))

(* Push random commit batches, built by the proxy, to a generation of
   LogServers; every (LogServer, tag) stream a peek serves must equal the
   reference build's, and no entry may carry a mutation twice. *)
let qcheck_tagged_streams (name, config) =
  let map = Shard_map.build config in
  let n_logs = config.Config.log_servers and replication = config.Config.log_replication in
  QCheck.Test.make ~name:("per-tag streams, " ^ name) ~count:25
    (QCheck.make gen_batches) (fun batches ->
      let lsn i = Int64.of_int (10 * (i + 1)) in
      let prev i = if i = 0 then 0L else lsn (i - 1) in
      let built =
        List.mapi
          (fun i muts ->
            Proxy.build_log_entries map ~n_logs ~replication (lsn i) (prev i) ~kcv:0L muts)
          batches
      in
      let reference = List.map (per_tag_reference map ~n_logs ~replication) batches in
      let tags =
        List.sort_uniq compare
          (List.concat_map (List.concat_map (Shard_map.tags_for_mutation map)) batches)
      in
      let expected li tag =
        List.concat
          (List.mapi
             (fun i stream -> match stream li tag with [] -> [] | muts -> [ (lsn i, muts) ])
             reference)
      in
      let served =
        Engine.run (fun () ->
            let ctx = mini_ctx ~config () in
            let client, eps = log_servers ctx ~epoch:1 ~start_lsn:0L n_logs in
            let rec push_batches = function
              | [] -> Future.return ()
              | entries :: rest ->
                  let* () =
                    Future.all_unit
                      (List.mapi
                         (fun li ep ->
                           let+ _durable =
                             Context.rpc ctx ~timeout:5.0 ~from:client ep
                               (Message.Log_push { lp_epoch = 1; lp_entry = entries.(li) })
                           in
                           ())
                         eps)
                  in
                  push_batches rest
            in
            let* () = push_batches built in
            Future.all
              (List.concat_map
                 (fun tag ->
                   List.mapi
                     (fun li ep ->
                       let* stream, _ = rpc_peek ctx ~from:client ep tag 0L in
                       Future.return (li, tag, stream))
                     eps)
                 tags))
      in
      List.for_all (Array.for_all no_mutation_twice) built
      && List.for_all (fun (li, tag, stream) -> stream = expected li tag) served)

let test_push_charged_once () =
  let m = Mutation.Set ("key", "value") in
  let used =
    Engine.run (fun () ->
        let _, _, _, proc, push, _ = setup () in
        let before = proc.Process.cpu_used in
        let* _ = push 5L 0L [ tagged [ 0; 1; 2 ] m ] in
        Future.return (proc.Process.cpu_used -. before))
  in
  let expected =
    Params.log_per_push
    +. Params.cpu (Params.log_per_byte *. float_of_int (Mutation.byte_size m))
  in
  Alcotest.(check (float 0.0)) "one mutation's bytes, not one copy per tag" expected used

(* Two old LogServers hold the same mutations; A popped tag 0 through 5,
   B popped tag 1 through 9, both popped tag 3. The merge takes each tag's
   stream at an LSN from the first server still holding it, so tags 0-2
   survive intact on the new generation and tag 3 never returns. *)
let test_recovery_merge_keeps_unpopped_streams () =
  let m1 = Mutation.Set ("a", "1") and m1b = Mutation.Set ("b", "1") in
  let m2 = Mutation.Set ("c", "2") and m3 = Mutation.Clear "d" in
  let n_logs = 2 and replication = 1 in
  let served =
    Engine.run (fun () ->
        let ctx = mini_ctx () in
        let client, old_eps = log_servers ctx ~epoch:1 ~start_lsn:0L 2 in
        let rpc ep msg = Context.rpc ctx ~timeout:5.0 ~from:client ep msg in
        let push_both lsn prev payload =
          Future.all_unit
            (List.map
               (fun ep ->
                 let+ _durable =
                   rpc ep (Message.Log_push { lp_epoch = 1; lp_entry = entry ~lsn ~prev payload })
                 in
                 ())
               old_eps)
        in
        let pop ep tag up_to = rpc ep (Message.Log_pop { tag; up_to }) in
        let lock ep = rpc ep (Message.Log_lock { ll_epoch = 2 }) in
        let a = List.nth old_eps 0 and b = List.nth old_eps 1 in
        let* () = push_both 5L 0L [ tagged [ 0; 1; 2; 3 ] m1; tagged [ 2 ] m1b ] in
        let* () = push_both 9L 5L [ tagged [ 0; 1; 3 ] m2; tagged [ 2 ] m3 ] in
        let* () = pop a 0 5L in
        let* () = pop a 3 9L in
        let* () = pop b 1 9L in
        let* () = pop b 3 9L in
        let* ra = lock a in
        let* rb = lock b in
        let merged = Sequencer.merge_entries [ ra; rb ] 9L in
        let _, new_eps = log_servers ctx ~epoch:2 ~start_lsn:9L n_logs in
        let* () =
          Future.all_unit
            (List.mapi
               (fun i ep ->
                 rpc ep
                   (Message.Log_seed
                      { ls_entries = Sequencer.seed_entries ~entries:merged ~n_logs ~replication i }))
               new_eps)
        in
        Future.all
          (List.concat_map
             (fun tag ->
               List.mapi
                 (fun li ep ->
                   let* stream, _ = rpc_peek ctx ~from:client ep tag 0L in
                   Future.return ((tag, li), stream))
                 new_eps)
             [ 0; 1; 2; 3 ]))
  in
  let expected =
    [
      ((0, 0), [ (5L, [ m1 ]); (9L, [ m2 ]) ]);
      ((0, 1), []);
      ((1, 0), []);
      ((1, 1), [ (5L, [ m1 ]); (9L, [ m2 ]) ]);
      ((2, 0), [ (5L, [ m1; m1b ]); (9L, [ m3 ]) ]);
      ((2, 1), []);
      ((3, 0), []);
      ((3, 1), []);
    ]
  in
  List.iter
    (fun ((tag, li), stream) ->
      Alcotest.(check bool)
        (Printf.sprintf "tag %d on new log %d" tag li)
        true
        (stream = List.assoc (tag, li) expected))
    served

let suite =
  [
    Alcotest.test_case "in-order push/peek" `Quick test_in_order_push_and_peek;
    Alcotest.test_case "out-of-order chain acks" `Quick test_out_of_order_pushes_ack_in_chain_order;
    Alcotest.test_case "duplicate push idempotent" `Quick test_duplicate_push_idempotent;
    Alcotest.test_case "pop discards" `Quick test_pop_discards;
    Alcotest.test_case "lock stops pushes" `Quick test_lock_stops_pushes_and_reports;
    Alcotest.test_case "resurrect after prune" `Quick test_resurrect_after_prune;
    Alcotest.test_case "prune keeps live records" `Quick test_prune_keeps_live_records;
    Alcotest.test_case "WAL holds the pushed entries" `Quick test_wal_holds_entries;
    Alcotest.test_case "lock caps in-flight acks" `Quick test_lock_caps_in_flight_acks;
    Alcotest.test_case "sync covers appends made during it" `Quick
      test_sync_covers_appends_made_during_it;
    Alcotest.test_case "push charged once per mutation" `Quick test_push_charged_once;
    Alcotest.test_case "long poll wakes on any push" `Quick test_long_poll_wakes_on_any_push;
    Alcotest.test_case "long poll bound expires" `Quick test_long_poll_bound_expires;
    Alcotest.test_case "lock answers parked peeks" `Quick test_lock_answers_parked_peeks;
    Alcotest.test_case "idle log holds only live peeks" `Quick
      test_idle_log_holds_only_live_peeks;
    Alcotest.test_case "adopt peeks new logs at once" `Quick test_adopt_peeks_new_logs_at_once;
    Alcotest.test_case "recovery merge keeps unpopped streams" `Quick
      test_recovery_merge_keeps_unpopped_streams;
  ]
  @ [ Property.to_alcotest qcheck_keep_tags ]
  @ List.map
      (fun c -> Property.to_alcotest (qcheck_tagged_streams c))
      [
        ("default", Config.default);
        ("test_small", Config.test_small);
        ("scaled 24", Config.scaled ~machines:24);
      ]
