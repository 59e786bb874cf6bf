(* Layer soak (paper §1, §4): run the layer ecosystem — directories,
   subspaces, transactional secondary indexes, and watch-driven queues —
   under the full fault storm, then recheck every layer invariant from
   durable state.

   Two oracles, both computed entirely from the database so no client-side
   bookkeeping has to survive Commit_unknown_result:

   - Index consistency: every tenant's record store carries a value index,
     a counter aggregate and a versionstamp changelog; [Index.verify]
     recomputes all three from the base records and diffs them against
     what is actually stored.

   - Queue exactly-once: every enqueue writes a ledger entry, the job
     item, and a signal bump in ONE transaction (the ledger makes retried
     enqueues after unknown commit results idempotent); every claim MOVES
     the job from the items subspace to a claimed subspace in ONE
     transaction, flagging a dup key if the claim slot was already taken.
     At the end, ledger = claimed ∪ pending must hold exactly, and the
     dup subspace must be empty. Idle consumers park on a watch of the
     signal key — armed inside the very transaction that observed the
     queue empty, so no wakeup can be lost. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng
module Subspace = Fdb_layers.Subspace
module Directory = Fdb_layers.Directory
module Index = Fdb_layers.Index

type stats = {
  upserts : int;
  deletes : int;
  enqueued : int;
  claimed : int;
  watch_waits : int;
  op_failures : int;
}

let empty_stats =
  { upserts = 0; deletes = 0; enqueued = 0; claimed = 0; watch_waits = 0; op_failures = 0 }

type t = {
  stores : Index.store array;
  items : Subspace.t;
  claimed_ss : Subspace.t;
  ledger : Subspace.t;
  dups : Subspace.t;
  signal_key : string;
  stop_key : string;
  mutable stats : stats;
}

let bump t f = t.stats <- f t.stats

let ops t =
  t.stats.upserts + t.stats.deletes + t.stats.enqueued + t.stats.claimed

let cities = [| "ams"; "ber"; "cdg"; "del"; "ewr" |]

let city_of value =
  match String.index_opt value ',' with
  | Some i -> String.sub value 0 i
  | None -> value

let defs =
  [
    Index.Value
      {
        name = "city";
        extract = (fun ~pkey:_ ~value -> [ [ Tuple.String (city_of value) ] ]);
      };
    Index.Counter
      { name = "city"; group = (fun ~pkey:_ ~value -> [ Tuple.String (city_of value) ]) };
    Index.Versionstamp { name = "log" };
  ]

(* Setup races the fault injector, so directory creation retries
   indefinitely on transaction errors: the cluster was ready moments ago
   and recoveries heal it again. *)
let rec robust f =
  Future.catch f (function
    | Error.Fdb _ ->
        let* () = Engine.sleep 0.5 in
        robust f
    | e -> Future.fail e)

let setup db ~tenants =
  let open_dir path =
    robust (fun () ->
        Client.run db ~max_attempts:8 (fun tx -> Directory.create_or_open tx path))
  in
  let rec go i acc =
    if i >= tenants then Future.return (Array.of_list (List.rev acc))
    else
      let* dir = open_dir [ "soak"; Printf.sprintf "tenant-%d" i ] in
      go (i + 1) (Index.create dir defs :: acc)
  in
  let* stores = go 0 [] in
  let* qdir = open_dir [ "soak"; "queue" ] in
  Future.return
    {
      stores;
      items = Subspace.sub qdir [ Tuple.String "items" ];
      claimed_ss = Subspace.sub qdir [ Tuple.String "claimed" ];
      ledger = Subspace.sub qdir [ Tuple.String "ledger" ];
      dups = Subspace.sub qdir [ Tuple.String "dups" ];
      signal_key = Subspace.pack qdir [ Tuple.String "signal" ];
      stop_key = Subspace.pack qdir [ Tuple.String "stop" ];
      stats = empty_stats;
    }

(* -------- record-store writers: one per tenant ---------------------- *)

let writer_loop db t tenant ~until ~rng =
  let store = t.stores.(tenant) in
  let rec loop () =
    if Engine.now () >= until then Future.return ()
    else
      let* () = Engine.sleep (0.02 +. Rng.float rng 0.15) in
      let pkey = Printf.sprintf "u%02d" (Rng.int rng 12) in
      let del = Rng.int rng 5 = 0 in
      let value =
        cities.(Rng.int rng (Array.length cities))
        ^ ",p"
        ^ string_of_int (Rng.int rng 1000)
      in
      let* () =
        Future.catch
          (fun () ->
            let* () =
              Client.run db ~max_attempts:8 (fun tx ->
                  if del then Index.clear store tx pkey
                  else Index.set store tx pkey value)
            in
            bump t (fun s ->
                if del then { s with deletes = s.deletes + 1 }
                else { s with upserts = s.upserts + 1 });
            Future.return ())
          (function
            | Error.Fdb _ ->
                bump t (fun s -> { s with op_failures = s.op_failures + 1 });
                Future.return ()
            | e -> Future.fail e)
      in
      loop ()
  in
  loop ()

(* -------- the watch-driven queue ------------------------------------ *)

let id_key ss id = Subspace.pack ss [ Tuple.Int (Int64.of_int id) ]

let producer_loop db t ~until ~rng =
  let next = ref 0 in
  let rec loop () =
    if Engine.now () >= until then Future.return ()
    else
      let* () = Engine.sleep (0.05 +. Rng.float rng 0.25) in
      let id = !next in
      incr next;
      let* () =
        Future.catch
          (fun () ->
            let* () =
              Client.run db ~max_attempts:8 (fun tx ->
                  let* seen = Client.get tx (id_key t.ledger id) in
                  match seen with
                  | Some _ ->
                      (* A previous attempt with an unknown commit result
                         actually committed: the ledger makes the retry a
                         no-op instead of a double enqueue. *)
                      Future.return ()
                  | None ->
                      Client.set tx (id_key t.ledger id) "";
                      Client.set tx (id_key t.items id)
                        (Printf.sprintf "job-%d" id);
                      Client.atomic_op tx Fdb_kv.Mutation.Add t.signal_key
                        (Index.le64 1L);
                      Future.return ())
            in
            bump t (fun s -> { s with enqueued = s.enqueued + 1 });
            Future.return ())
          (function
            | Error.Fdb _ ->
                bump t (fun s -> { s with op_failures = s.op_failures + 1 });
                Future.return ()
            | e -> Future.fail e)
      in
      loop ()
  in
  loop ()

(* One claim attempt: move the head job to the claimed subspace, or park
   a watch armed in the same transaction that observed emptiness. *)
let try_claim db t =
  Client.run db ~max_attempts:8 (fun tx ->
      let* head =
        Client.range tx (Subspace.query ~limit:1 ~mode:(`Exact 1) t.items ())
      in
      match head.Client.batch_rows with
      | (k, payload) :: _ ->
          let id =
            match Subspace.unpack t.items k with
            | [ Tuple.Int id ] -> Int64.to_int id
            | _ -> -1
          in
          let* prev = Client.get tx (id_key t.claimed_ss id) in
          (match prev with
          | Some _ -> Client.set tx (id_key t.dups id) ""
          | None -> ());
          Client.clear tx k;
          Client.set tx (id_key t.claimed_ss id) payload;
          Future.return `Job
      | [] -> (
          let* stopped = Client.get tx t.stop_key in
          match stopped with
          | Some _ -> Future.return `Stop
          | None -> Future.return (`Wait (Client.watch tx t.signal_key))))

let consumer_loop db t ~deadline ~rng =
  let rec loop () =
    if Engine.now () >= deadline then Future.return ()
    else
      let* r =
        Future.catch
          (fun () -> try_claim db t)
          (function Error.Fdb _ -> Future.return `Retry | e -> Future.fail e)
      in
      match r with
      | `Job ->
          bump t (fun s -> { s with claimed = s.claimed + 1 });
          loop ()
      | `Stop -> Future.return ()
      | `Retry ->
          let* () = Engine.sleep (0.1 +. Rng.float rng 0.4) in
          loop ()
      | `Wait w ->
          bump t (fun s -> { s with watch_waits = s.watch_waits + 1 });
          let left = deadline -. Engine.now () in
          if left <= 0.0 then begin
            Client.cancel_watch w;
            Future.return ()
          end
          else
            let* () =
              Future.catch
                (fun () -> Engine.timeout (min 30.0 left) (Client.watch_future w))
                (fun _ ->
                  (* Timeout, cancellation, or a poll failure: cancel so
                     the long-poll fiber winds down, then re-examine the
                     queue — a spurious wakeup is always safe. *)
                  Client.cancel_watch w;
                  Future.return ())
            in
            loop ()
  in
  loop ()

(* The stop marker and a signal bump ride one transaction, so every
   parked consumer wakes, observes the marker, and exits. *)
let rec broadcast_stop db t ~deadline =
  Future.catch
    (fun () ->
      Client.run db ~max_attempts:8 (fun tx ->
          Client.set tx t.stop_key "stop";
          Client.atomic_op tx Fdb_kv.Mutation.Add t.signal_key (Index.le64 1L);
          Future.return ()))
    (function
      | Error.Fdb _ when Engine.now () < deadline ->
          let* () = Engine.sleep 1.0 in
          broadcast_stop db t ~deadline
      | Error.Fdb _ -> Future.return ()
      | e -> Future.fail e)

let run cluster ~until ~rng () =
  let* t = setup (Cluster.client cluster ~name:"layer-setup") ~tenants:2 in
  let writers =
    List.init (Array.length t.stores) (fun i ->
        writer_loop
          (Cluster.client cluster ~name:(Printf.sprintf "layer-writer-%d" i))
          t i ~until ~rng:(Rng.split rng))
  in
  let producer =
    producer_loop (Cluster.client cluster ~name:"layer-producer") t ~until
      ~rng:(Rng.split rng)
  in
  (* Consumers exit via the stop marker; the deadline is only a backstop
     so a wedged cluster cannot hang the whole run. *)
  let deadline = until +. 240.0 in
  let consumers =
    List.init 2 (fun i ->
        consumer_loop
          (Cluster.client cluster ~name:(Printf.sprintf "layer-consumer-%d" i))
          t ~deadline ~rng:(Rng.split rng))
  in
  let* () = producer in
  let rec join = function
    | [] -> Future.return ()
    | j :: rest ->
        let* () = j in
        join rest
  in
  let* () = join writers in
  let* () = broadcast_stop (Cluster.client cluster ~name:"layer-stop") t ~deadline in
  let* () = join consumers in
  Future.return t

(* -------- the oracles (run after the world has healed) -------------- *)

let ids_of ss rows =
  List.filter_map
    (fun (k, _) ->
      match Subspace.unpack ss k with
      | [ Tuple.Int id ] -> Some id
      | _ -> None
      | exception _ -> None)
    rows

let check cluster t =
  let db = Cluster.client cluster ~name:"layer-check" in
  Future.catch
    (fun () ->
      let* queue_issues =
        Client.run db (fun tx ->
            let grab ss =
              Client.range_all tx
                (Subspace.query ~snapshot:true ~limit:1_000_000 ss ())
            in
            let* items = grab t.items in
            let* claimed = grab t.claimed_ss in
            let* ledger = grab t.ledger in
            let* dups = grab t.dups in
            let item_ids = ids_of t.items items in
            let claimed_ids = ids_of t.claimed_ss claimed in
            let ledger_ids = List.sort compare (ids_of t.ledger ledger) in
            let issues = ref [] in
            if dups <> [] then
              issues :=
                Printf.sprintf "queue: %d duplicate claim(s)" (List.length dups)
                :: !issues;
            let delivered = List.sort_uniq compare (claimed_ids @ item_ids) in
            if
              List.length delivered
              <> List.length claimed_ids + List.length item_ids
            then issues := "queue: job both claimed and still pending" :: !issues;
            if delivered <> ledger_ids then
              issues :=
                Printf.sprintf
                  "queue: ledger %d <> claimed %d + pending %d (lost or \
                   phantom jobs)"
                  (List.length ledger_ids) (List.length claimed_ids)
                  (List.length item_ids)
                :: !issues;
            Future.return (List.rev !issues))
      in
      let rec tenants i acc =
        if i >= Array.length t.stores then Future.return (List.rev acc)
        else
          let* issues = Client.run db (fun tx -> Index.verify t.stores.(i) tx) in
          tenants (i + 1)
            (List.rev_append
               (List.map (fun s -> Printf.sprintf "tenant %d %s" i s) issues)
               acc)
      in
      let* tenant_issues = tenants 0 [] in
      Future.return (queue_issues @ tenant_issues))
    (fun e -> Future.return [ "layer check crashed: " ^ Printexc.to_string e ])
