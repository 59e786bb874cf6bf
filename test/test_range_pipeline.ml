(* The range-read pipeline and selector/streaming client API:

   - qcheck model tests: key-selector resolution ([Client.get_key]) against
     a pure sorted-list model, on both the storage path (clean transaction)
     and the RYW path (buffered sets/clears in the transaction);
   - qcheck model test: continuation-stitched [Client.range] batches against a
     reference assoc list, with rows big enough that the per-round-trip
     byte budget forces a single scan through many stitched batches, RYW
     merge included;
   - a failover scenario under buggified storage replies: reads must
     return identical data while replicas fail over transparently;
   - the shard-map-change regression: a range read straddling a
     [Shard_map.set_team] mid-flight must re-resolve and return the full
     result rather than silently truncating or failing;
   - transaction options ([tx_options]) plumbing. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng
module M = Map.Make (String)

let key i = Printf.sprintf "rp/%03d" i
let value i = Printf.sprintf "v%04d" i

let with_cluster ?(seed = 11L) ?(buggify = false) body =
  Engine.run ~seed ~max_time:1e5 ~buggify (fun () ->
      let cluster = Cluster.create ~config:Config.test_small () in
      let* () = Cluster.wait_ready cluster in
      body cluster)

let populate ?(value = value) db present =
  let rec batches = function
    | [] -> Future.return ()
    | chunk ->
        let now, rest =
          if List.length chunk <= 100 then (chunk, [])
          else (List.filteri (fun i _ -> i < 100) chunk,
                List.filteri (fun i _ -> i >= 100) chunk)
        in
        let* _ =
          Client.run db (fun tx ->
              List.iter (fun i -> Client.set tx (key i) (value i)) now;
              Future.return ())
        in
        batches rest
  in
  batches present

(* ---------- selector model ---------- *)

(* The reference: index of the last key <=/< sel_key, moved sel_offset
   keys forward, clamped to ""/key_space_end off the ends. *)
let model_resolve sorted_keys (sel : Client.Key_selector.t) =
  let arr = Array.of_list sorted_keys in
  let n = Array.length arr in
  let base = ref (-1) in
  Array.iteri
    (fun i k ->
      if (if sel.sel_or_equal then k <= sel.sel_key else k < sel.sel_key) then
        base := i)
    arr;
  let i = !base + sel.sel_offset in
  if i < 0 then "" else if i >= n then Types.key_space_end else arr.(i)

(* Candidate anchor keys: on-grid, just off-grid, before-all, after-all. *)
let anchor_of_int i =
  match i mod 4 with
  | 0 -> key (i mod 50)
  | 1 -> key (i mod 50) ^ "!"
  | 2 -> "rp/"
  | _ -> "rp/~~~"

let selector_of (anchor, or_equal, offset) =
  { Client.Key_selector.sel_key = anchor_of_int anchor;
    sel_or_equal = or_equal;
    sel_offset = offset }

let gen_selector_case =
  QCheck.Gen.(
    pair
      (list_size (int_range 3 25) (int_range 0 49)) (* present key ids *)
      (list_size (int_range 5 20)
         (triple (int_range 0 199) bool (int_range (-4) 4))))

let qcheck_selector_storage =
  QCheck.Test.make ~name:"get_key matches selector model (storage path)"
    ~count:6 (QCheck.make gen_selector_case)
    (fun (present, sels) ->
      let present = List.sort_uniq compare present in
      let sorted = List.map key present in
      with_cluster (fun cluster ->
          let db = Cluster.client cluster ~name:"sel" in
          let* () = populate db present in
          Client.run db (fun tx ->
              let rec go = function
                | [] -> Future.return true
                | spec :: rest ->
                    let sel = selector_of spec in
                    let* k = Client.get_key tx sel in
                    let expected = model_resolve sorted sel in
                    if k = expected then go rest
                    else begin
                      Printf.printf
                        "selector {%S or_equal=%b offset=%d}: got %S, model %S\n"
                        sel.Client.Key_selector.sel_key sel.sel_or_equal
                        sel.sel_offset k expected;
                      Future.return false
                    end
              in
              go sels)))

let qcheck_selector_ryw =
  QCheck.Test.make ~name:"get_key matches selector model (RYW path)" ~count:6
    (QCheck.make
       QCheck.Gen.(
         triple gen_selector_case
           (list_size (int_range 1 8) (int_range 50 80)) (* extra buffered sets *)
           (list_size (int_range 1 8) (int_range 0 49)) (* buffered clears *)))
    (fun ((present, sels), extra, clears) ->
      let present = List.sort_uniq compare present in
      let extra = List.sort_uniq compare extra in
      let clears = List.sort_uniq compare clears in
      let merged =
        List.filter (fun i -> not (List.mem i clears)) present @ extra
        |> List.sort_uniq compare |> List.map key
      in
      with_cluster (fun cluster ->
          let db = Cluster.client cluster ~name:"sel-ryw" in
          let* () = populate db present in
          Client.run db (fun tx ->
              List.iter (fun i -> Client.set tx (key i) "buffered") extra;
              List.iter (fun i -> Client.clear tx (key i)) clears;
              let rec go = function
                | [] -> Future.return true
                | spec :: rest ->
                    let sel = selector_of spec in
                    let* k = Client.get_key tx sel in
                    let expected = model_resolve merged sel in
                    if k = expected then go rest
                    else begin
                      Printf.printf
                        "RYW selector {%S or_equal=%b offset=%d}: got %S, model %S\n"
                        sel.Client.Key_selector.sel_key sel.sel_or_equal
                        sel.sel_offset k expected;
                      Future.return false
                    end
              in
              let* ok = go sels in
              (* Abandon the transaction: the buffered writes were props. *)
              Future.return ok)))

(* ---------- streaming with continuation stitching ---------- *)

(* Rows of 8 KiB: the 64 KiB iterator budget holds about eight of them,
   so every scan of a few dozen rows is many stitched batches. *)
let big_value i = String.make 8_192 (Char.chr (Char.code 'a' + (i mod 26)))

let stream_all ?(reverse = false) tx ~from ~until =
  let batches = ref 0 in
  let rec scan ?continuation acc =
    let* b =
      Client.range tx
        (Range_query.keys ~mode:`Iterator ~reverse ?continuation ~from ~until ())
    in
    incr batches;
    let acc = List.rev_append b.Client.batch_rows acc in
    match b.Client.batch_continuation with
    | Some c -> scan ~continuation:c acc
    | None -> Future.return (List.rev acc, !batches)
  in
  scan []

let qcheck_stream_model =
  QCheck.Test.make
    ~name:"continuation-stitched stream matches reference (with RYW)" ~count:6
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 10 40) (int_range 0 60)) (* population *)
           (pair (int_range 0 60) (int_range 0 60)) (* scan bounds *)
           (triple
              (list_size (int_range 0 6) (int_range 0 70)) (* RYW sets *)
              (list_size (int_range 0 6) (int_range 0 60)) (* RYW clears *)
              bool (* reverse *))))
    (fun (present, (a, b), (sets, clears, reverse)) ->
      let present = List.sort_uniq compare present in
      let lo, hi = (key (min a b), key (max a b + 1)) in
      let model =
        let base =
          List.fold_left (fun m i -> M.add (key i) (big_value i) m) M.empty present
        in
        List.fold_left
          (fun m i -> M.remove (key i) m)
          (List.fold_left (fun m i -> M.add (key i) "buffered" m) base sets)
          clears
        |> M.bindings
        |> List.filter (fun (k, _) -> lo <= k && k < hi)
      in
      let model = if reverse then List.rev model else model in
      with_cluster (fun cluster ->
          let db = Cluster.client cluster ~name:"stream" in
          let* () = populate ~value:big_value db present in
          Client.run db (fun tx ->
              List.iter (fun i -> Client.set tx (key i) "buffered") sets;
              List.iter (fun i -> Client.clear tx (key i)) clears;
              let* rows, _batches = stream_all ~reverse tx ~from:lo ~until:hi in
              if rows = model then Future.return true
              else begin
                Printf.printf
                  "stream [%S,%S) reverse=%b: got %d rows, model %d\n" lo hi
                  reverse (List.length rows) (List.length model);
                Future.return false
              end)))

let test_stream_stitches_batches () =
  (* Deterministic check that the byte budget really splits the scan. *)
  let rows, batches =
    with_cluster (fun cluster ->
        let db = Cluster.client cluster ~name:"stitch" in
        let present = List.init 40 Fun.id in
        let* () = populate ~value:big_value db present in
        Client.run db (fun tx -> stream_all tx ~from:"rp/" ~until:"rp0"))
  in
  Alcotest.(check int) "all rows" 40 (List.length rows);
  Alcotest.(check bool)
    (Printf.sprintf "scan was stitched from several batches (%d)" batches)
    true (batches > 3)

(* ---------- failover under buggified storage replies ---------- *)

let test_failover_identical_data () =
  let expected = List.init 60 (fun i -> (key i, value i)) in
  let ok, flaky_fired, failovers =
    (* Seed chosen so the "ss_flaky_range" buggify point is enabled: range
       replies randomly reject with Process_behind and the client must
       fail over to another replica without changing the result. *)
    with_cluster ~seed:3L ~buggify:true (fun cluster ->
        let db = Cluster.client cluster ~name:"failover" in
        let* () = populate db (List.init 60 Fun.id) in
        let rec reads n ok =
          if n = 0 then Future.return ok
          else
            let* rows =
              Client.run db (fun tx ->
                  Client.range_all tx (Range_query.prefix ~limit:100 "rp/" ()))
            in
            reads (n - 1) (ok && rows = expected)
        in
        let* ok = reads 20 true in
        Future.return
          ( ok,
            List.mem "ss_flaky_range" (Buggify.points_hit ()),
            Trace.count "client_read_failover" ))
  in
  Alcotest.(check bool) "every buggified read returned identical data" true ok;
  if flaky_fired then
    Alcotest.(check bool)
      (Printf.sprintf "failover happened (%d)" failovers)
      true (failovers > 0)

(* ---------- shard-map change mid-read (regression) ---------- *)

let test_shard_move_mid_read () =
  (* A wide range read is in flight when every shard's team is reassigned
     from its highest-id member to its lowest-id member. The stale
     fragments hit Wrong_shard, must re-resolve against the live map, and
     the read must come back complete — the pre-fix behavior silently
     truncated (no covers check) or failed outright. *)
  let expected = List.init 80 (fun i -> (key i, value i)) in
  let rows, re_resolves =
    with_cluster ~seed:5L (fun cluster ->
        let ctx = Cluster.context cluster in
        let sm = ctx.Context.shard_map in
        let db = Cluster.client cluster ~name:"mover" in
        let* () = populate db (List.init 80 Fun.id) in
        (* Let every replica drain the log before we touch the map: storage
           servers only apply mutations for shards they currently serve, so
           pinning too early would silently un-replicate the data. *)
        let* () = Engine.sleep 1.0 in
        let teams = Array.map (fun t -> t) (Shard_map.tag_teams sm) in
        (* Pin every shard to its highest-id member... *)
        Array.iteri
          (fun s team ->
            Shard_map.set_team sm ~shard:s
              ~team:[ List.fold_left max (List.hd team) team ])
          teams;
        let tx = Client.begin_tx db in
        (* Resolve the snapshot up front so starting the read issues the
           per-shard sub-reads synchronously, against the pinned teams... *)
        let* (_ : Types.version * Types.epoch) = Client.read_snapshot tx in
        let read = Client.range_all tx (Range_query.prefix ~limit:200 "rp/" ()) in
        (* ...and yank every shard to the lowest-id member while those
           requests are on the wire. Both members held the data from the
           start (set_team models no data movement), so the servers the
           client is still talking to answer Wrong_shard. *)
        Array.iteri
          (fun s team ->
            Shard_map.set_team sm ~shard:s
              ~team:[ List.fold_left min (List.hd team) team ])
          teams;
        let* rows = read in
        if rows <> expected then
          Printf.printf
            "got %d rows (expected %d); first miss: %s; re_resolve=%d set_team=%d failover=%d\n"
            (List.length rows) (List.length expected)
            (match
               List.find_opt (fun (k, _) -> not (List.mem_assoc k rows)) expected
             with
            | Some (k, _) -> k
            | None -> "<extra rows>")
            (Trace.count "client_range_re_resolve")
            (Trace.count "shard_map_update")
            (Trace.count "client_read_failover");
        Future.return (rows, Trace.count "client_range_re_resolve"))
  in
  Alcotest.(check bool) "no rows lost across the shard move" true (rows = expected);
  Alcotest.(check bool)
    (Printf.sprintf "the stale fragments re-resolved (%d)" re_resolves)
    true (re_resolves > 0)

(* ---------- transaction options ---------- *)

let test_tx_options () =
  let r =
    with_cluster ~seed:7L (fun cluster ->
        let db = Cluster.client cluster ~name:"opts" in
        let* () = populate db (List.init 30 Fun.id) in
        (* A per-transaction read-byte cap must fail a wide range read. *)
        let* capped =
          Future.catch
            (fun () ->
              let options =
                { Client.default_options with opt_max_read_bytes = Some 40 }
              in
              let* _ =
                Client.run db ~options (fun tx ->
                    Client.range_all tx (Range_query.prefix "rp/" ()))
              in
              Future.return "no-error")
            (function
              | Error.Fdb Error.Transaction_too_large ->
                  Future.return "too-large"
              | e -> Future.fail e)
        in
        (* An overall timeout must cut off a never-finishing body. *)
        let* timed =
          Future.catch
            (fun () ->
              let options =
                { Client.default_options with opt_timeout = Some 0.05 }
              in
              let* () =
                Client.run db ~options (fun _tx -> Engine.sleep 1000.0)
              in
              Future.return "no-error")
            (function
              | Error.Fdb Error.Timed_out -> Future.return "timed-out"
              | e -> Future.fail e)
        in
        (* set_option applies mid-transaction. *)
        let* set_opt =
          Client.run db (fun tx ->
              Client.set_option tx
                { Client.default_options with opt_max_read_bytes = Some 40 };
              Future.catch
                (fun () ->
                  let* _ = Client.range_all tx (Range_query.prefix "rp/" ()) in
                  Future.return "no-error")
                (function
                  | Error.Fdb Error.Transaction_too_large ->
                      Future.return "too-large"
                  | e -> Future.fail e))
        in
        Future.return [ capped; timed; set_opt ])
  in
  Alcotest.(check (list string))
    "options enforced"
    [ "too-large"; "timed-out"; "too-large" ]
    r

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_selector_storage;
    QCheck_alcotest.to_alcotest qcheck_selector_ryw;
    QCheck_alcotest.to_alcotest qcheck_stream_model;
    Alcotest.test_case "tiny byte budget stitches batches" `Quick
      test_stream_stitches_batches;
    Alcotest.test_case "failover returns identical data" `Quick
      test_failover_identical_data;
    Alcotest.test_case "shard move mid-read re-resolves" `Quick
      test_shard_move_mid_read;
    Alcotest.test_case "tx options are enforced" `Quick test_tx_options;
  ]
