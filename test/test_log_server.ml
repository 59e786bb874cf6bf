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
  let net : Message.t Network.t = Network.create () in
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
  let* reply =
    Context.rpc ctx ~timeout:5.0 ~from ep (Message.Log_peek { tag; from_version })
  in
  match reply with
  | Message.Log_peek_reply { pk_entries; pk_end; _ } -> Future.return (pk_entries, pk_end)
  | _ -> Future.fail Exit

(* [n] LogServers of one generation, each with its own process and disk,
   and a client process to drive them. *)
let log_servers ctx ~epoch ~start_lsn n =
  let machine = Process.fresh_machine 1 in
  let client = Process.create ~name:"pusher" machine in
  let eps =
    List.init n (fun id ->
        let proc = Process.create ~name:(Printf.sprintf "tlog-%d" id) machine in
        let disk = Disk.create ~name:(Printf.sprintf "tlog-disk-%d" id) () in
        snd (Log_server.create ctx proc ~disk ~epoch ~id ~start_lsn))
  in
  (client, eps)

let setup () =
  let ctx = mini_ctx () in
  let machine = Process.fresh_machine 1 in
  let proc = Process.create ~name:"tlog-test" machine in
  let client = Process.create ~name:"pusher" machine in
  let disk = Disk.create ~name:"tlog-disk" () in
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
        let* a1 = push 5L 0L [ tagged [ 0 ] (Mutation.Set ("a", "1")) ] in
        let* a2 = push 9L 5L [ tagged [ 0 ] (Mutation.Set ("b", "2")) ] in
        let dv1 = match a1 with Message.Log_push_ack { durable_version } -> durable_version | _ -> -1L in
        let dv2 = match a2 with Message.Log_push_ack { durable_version } -> durable_version | _ -> -1L in
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
        let* a9 = late in
        match a9 with
        | Message.Log_push_ack { durable_version } -> Future.return durable_version
        | _ -> Future.fail Exit)
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
        let* reply =
          Context.rpc ctx ~timeout:5.0 ~from:client ep (Message.Log_lock { ll_epoch = 2 })
        in
        let dv, n_entries =
          match reply with
          | Message.Log_lock_reply { lk_dv; lk_entries; _ } -> (lk_dv, List.length lk_entries)
          | _ -> (-1L, -1)
        in
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
        let* reply =
          Context.rpc ctx ~timeout:5.0 ~from:client ep (Message.Log_lock { ll_epoch = 2 })
        in
        match reply with
        | Message.Log_lock_reply { lk_dv; _ } -> Future.return lk_dv
        | _ -> Future.return (-1L))
  in
  Alcotest.(check bool) "durable version survives prune + crash" true (r >= 9L)

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
                           let* _ =
                             Context.rpc ctx ~timeout:5.0 ~from:client ep
                               (Message.Log_push { lp_epoch = 1; lp_entry = entries.(li) })
                           in
                           Future.return ())
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
                 let* _ =
                   rpc ep (Message.Log_push { lp_epoch = 1; lp_entry = entry ~lsn ~prev payload })
                 in
                 Future.return ())
               old_eps)
        in
        let pop ep tag up_to =
          let* _ = rpc ep (Message.Log_pop { tag; up_to }) in
          Future.return ()
        in
        let lock ep =
          let* reply = rpc ep (Message.Log_lock { ll_epoch = 2 }) in
          match reply with
          | Message.Log_lock_reply { lk_kcv; lk_dv; lk_entries } ->
              Future.return (lk_kcv, lk_dv, lk_entries)
          | _ -> Future.fail Exit
        in
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
                 let* _ =
                   rpc ep
                     (Message.Log_seed
                        { ls_entries = Sequencer.seed_entries ~entries:merged ~n_logs ~replication i })
                 in
                 Future.return ())
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
    Alcotest.test_case "push charged once per mutation" `Quick test_push_charged_once;
    Alcotest.test_case "recovery merge keeps unpopped streams" `Quick
      test_recovery_merge_keeps_unpopped_streams;
  ]
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (qcheck_tagged_streams c))
      [
        ("default", Config.default);
        ("test_small", Config.test_small);
        ("scaled 24", Config.scaled ~machines:24);
      ]
