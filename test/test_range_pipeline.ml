(* The range-read pipeline and selector/streaming client API:

   - qcheck model tests: key-selector resolution ([Client.get_key]) against
     a pure sorted-list model, on a clean transaction ("storage path") and
     with buffered sets/clears in the transaction ("RYW path");
   - qcheck model test: continuation-stitched [Client.range] batches against a
     reference assoc list, with rows big enough that the per-round-trip
     byte budget forces a single scan through many stitched batches, RYW
     merge included;
   - a failover scenario under buggified storage replies: reads must
     return identical data while replicas fail over transparently;
   - the shard-map-change regression: a range read straddling a
     [Shard_map.set_team] mid-flight must re-resolve and return the full
     result rather than silently truncating or failing;
   - least-loaded replica choice: concurrent sub-reads of one handle
     spread over distinct team members, and every in-flight count
     returns to zero after failovers;
   - transaction options ([tx_options]) plumbing;
   - the launch window: a read that a budget cuts short launches
     [min limit servers] sub-reads and none past the cut, and no wide read
     has more than that many launched and unconsumed;
   - every storage range sub-read records a read-latency sample;
   - the storage scan contract: one server's [Storage_get_range] replies,
     forward and reverse, against a model at every budget. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng
module M = Map.Make (String)

let key i = Printf.sprintf "rp/%03d" i
let value i = Printf.sprintf "v%04d" i

let with_cluster ?(seed = 11L) ?(buggify = false) ?buggify_active
    ?(config = Config.test_small) body =
  Engine.run ~seed ~max_time:1e5 ~buggify ?buggify_active (fun () ->
      let cluster = Cluster.create ~config () in
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
    (* The "ss_flaky_range" buggify point is activated for the run: range
       replies randomly reject with Process_behind and the client must
       fail over to another replica without changing the result. The
       point fires on a tenth of its evaluations, so 100 reads leave it
       unfired on fewer than 1 in 30,000 schedules. *)
    with_cluster ~seed:33L ~buggify:true ~buggify_active:[ "ss_flaky_range" ]
      (fun cluster ->
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
        let* ok = reads 100 true in
        Future.return
          ( ok,
            List.mem "ss_flaky_range" (Buggify.points_hit ()),
            Trace.count "client_read_failover" ))
  in
  Alcotest.(check bool) "every buggified read returned identical data" true ok;
  Alcotest.(check bool) "the flaky-range point fired" true flaky_fired;
  Alcotest.(check bool)
    (Printf.sprintf "failover happened (%d)" failovers)
    true (failovers > 0)

(* ---------- shard-map change mid-read (regression) ---------- *)

let test_shard_move_mid_read () =
  (* A wide range read and a key-selector walk are in flight when every
     shard's team is reassigned from its highest-id member to its lowest-id
     member. The stale fragments hit Wrong_shard, must re-resolve against
     the live map, and both must come back complete — the pre-fix behavior
     silently truncated (no covers check) or failed outright. *)
  let expected = List.init 80 (fun i -> (key i, value i)) in
  let rows, resolved, re_resolves =
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
        (* A selector walk is a sequential range read: its first fragment is
           on the wire too, and its remainder must re-resolve. *)
        let resolved =
          Client.get_key tx (Client.Key_selector.first_greater_or_equal ~offset:60 "rp/")
        in
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
        let* resolved = resolved in
        Future.return (rows, resolved, Trace.count "client_range_re_resolve"))
  in
  Alcotest.(check bool) "no rows lost across the shard move" true (rows = expected);
  Alcotest.(check string) "the selector resolves across the shard move"
    (model_resolve (List.map fst expected)
       (Client.Key_selector.first_greater_or_equal ~offset:60 "rp/"))
    resolved;
  Alcotest.(check bool)
    (Printf.sprintf "the stale fragments re-resolved (%d)" re_resolves)
    true (re_resolves > 0)

(* ---------- the launch window ---------- *)

(* [Config.test_small]'s 3 storage servers, with 8 shards of 10 keys
   each under "cs/"; [body] gets the loaded cluster and a handle. *)
let skey i = Printf.sprintf "cs/%03d" i

let with_cut_cluster body =
  let config =
    { Config.test_small with shard_boundaries = List.init 7 (fun s -> skey ((s + 1) * 10)) }
  in
  with_cluster ~config (fun cluster ->
      let db = Cluster.client cluster ~name:"cut" in
      let* () =
        Client.run db (fun tx ->
            for i = 0 to 79 do
              Client.set tx (skey i) (value i)
            done;
            Future.return ())
      in
      body cluster db)

let range_requests cluster =
  Fdb_obs.Registry.sum_counter (Cluster.metrics cluster)
    ~role:Fdb_obs.Registry.Storage "range_requests"

let test_cut_read_stops_launching () =
  (* A read of [limit] <= 10 rows fills its budget in the first shard. It
     launches [min limit 3] sub-reads from the start (3 servers), but
     consuming the first one ends the read, so it must launch no further
     sub-read past the cut. *)
  let results =
    with_cut_cluster (fun cluster db ->
        let read limit =
          let tx = Client.begin_tx db in
          let* (_ : Types.version * Types.epoch) = Client.read_snapshot tx in
          let before = range_requests cluster in
          let* batch = Client.range tx (Range_query.prefix ~limit "cs/" ()) in
          (* Let a stray sub-read land before counting. *)
          let* () = Engine.sleep 0.5 in
          Future.return (limit, batch.Client.batch_rows, range_requests cluster - before)
        in
        let* a = read 1 in
        let* b = read 2 in
        let* c = read 5 in
        Future.return [ a; b; c ])
  in
  List.iter
    (fun (limit, rows, requests) ->
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "limit %d: the first rows" limit)
        (List.init limit (fun i -> (skey i, value i)))
        rows;
      Alcotest.(check int)
        (Printf.sprintf "limit %d: min(limit, 3) sub-reads, none past the cut" limit)
        (min limit 3) requests)
    results

let test_window_bound () =
  (* Wide reads over the 8 shards at limits below and above the 3
     servers: while a read runs, this handle never has more than
     [min limit 3] storage requests in flight, and the read's peak of
     launched, unconsumed sub-reads stays within the same bound. *)
  let results =
    with_cut_cluster (fun cluster db ->
        let servers = Array.length (Cluster.context cluster).Context.storage_eps in
        let read limit =
          let tx = Client.begin_tx db in
          let* (_ : Types.version * Types.epoch) = Client.read_snapshot tx in
          let rows = Client.range_all tx (Range_query.prefix ~limit "cs/" ()) in
          let rec sample most =
            let busy = Array.fold_left ( + ) 0 (Client.storage_inflight db) in
            let most = max most busy in
            if Future.is_resolved rows then Future.return most
            else
              let* () = Engine.sleep 0.0001 in
              sample most
          in
          let* most = sample 0 in
          let* rows = rows in
          Future.return (limit, List.length rows, most, Client.read_fanout db)
        in
        let rec each acc = function
          | [] -> Future.return (servers, List.rev acc)
          | limit :: rest ->
              let* r = read limit in
              each (r :: acc) rest
        in
        each [] [ 1; 2; 3; 15; 80 ])
  in
  let servers, results = results in
  List.iter
    (fun (limit, rows, most, peak) ->
      let bound = min limit servers in
      let name what = Printf.sprintf "limit %d: %s" limit what in
      Alcotest.(check int) (name "rows") (min limit 80) rows;
      Alcotest.(check bool)
        (name (Printf.sprintf "%d requests in flight <= %d" most bound))
        true
        (most >= 1 && most <= bound);
      Alcotest.(check bool)
        (name (Printf.sprintf "peak window %d <= %d" peak bound))
        true
        (peak >= 1 && peak <= bound))
    results

let test_range_read_latency () =
  (* Each sub-read a StorageServer serves is one read-latency sample: a
     read over all 8 single-round shards adds 8. *)
  let samples, rows =
    with_cut_cluster (fun cluster db ->
        let observed () =
          List.fold_left
            (fun n (_, h) -> n + Fdb_util.Histogram.count h)
            0
            (Fdb_obs.Registry.histograms (Cluster.metrics cluster)
               ~role:Fdb_obs.Registry.Storage "read_latency")
        in
        let tx = Client.begin_tx db in
        let* (_ : Types.version * Types.epoch) = Client.read_snapshot tx in
        let before = observed () in
        let* rows = Client.range_all tx (Range_query.prefix ~limit:80 "cs/" ()) in
        Future.return (observed () - before, List.length rows))
  in
  Alcotest.(check int) "all 80 rows" 80 rows;
  Alcotest.(check int) "one latency sample per fragment" 8 samples

(* ---------- the storage scan contract, both directions ---------- *)

(* One storage server answers [Storage_get_range] from its persistent image
   overlaid by its MVCC window. Give a range keys in both: durable rows,
   then window sets that override some of them, point clears, a range
   clear, a re-set inside the cleared span and window-only keys (the
   lowest and highest keys of the range are visible, so a scan that
   returns every visible row has no candidate left). At every row and
   byte budget, in both directions, the reply must hold the first visible
   rows in scan order, and [rr_more] must say whether a visible row is
   left. *)
let ckey i = Printf.sprintf "sc/%03d" i

let scan_model =
  let durable = List.init 30 (fun i -> (ckey i, Printf.sprintf "p%03d" i)) in
  let m = M.of_seq (List.to_seq durable) in
  let m = List.fold_left (fun m i -> M.add (ckey i) (Printf.sprintf "w%03d" i) m) m [ 0; 4; 8; 20 ] in
  let m = List.fold_left (fun m i -> M.remove (ckey i) m) m [ 3; 9; 25 ] in
  let m = M.filter (fun k _ -> k < ckey 12 || k >= ckey 17) m in
  M.bindings (M.add (ckey 14) "back" (M.add "sc/005a" "new" (M.add "sc/zz" "top" m)))

let test_scan_contract () =
  let from = ckey 0 and until = "sc0" in
  let model = scan_model in
  let replies =
    with_cluster (fun cluster ->
        let ctx = Cluster.context cluster in
        let sm = ctx.Context.shard_map in
        let lo, hi = Shard_map.shard_range_for_key sm from in
        if not (lo <= from && until <= hi) then Alcotest.fail "the range spans shards";
        let ss = List.hd (Shard_map.team_for_key sm from) in
        let proc =
          Process.create ~name:"scan-probe" (Process.fresh_machine ~dc:"dc1" 920_000)
        in
        let call msg =
          Context.rpc ctx ~timeout:5.0 ~from:proc ctx.Context.storage_eps.(ss) msg
        in
        let db = Cluster.client cluster ~name:"scan" in
        let commit ops = Client.run db (fun tx -> ops tx; Future.return ()) in
        let* () =
          commit (fun tx ->
              List.iter (fun i -> Client.set tx (ckey i) (Printf.sprintf "p%03d" i))
                (List.init 30 Fun.id))
        in
        let* durable_floor, _ = Client.run db (fun tx -> Client.read_snapshot tx) in
        (* Versions only advance on commits: tick until the server's durable
           horizon passes the rows, so they live in its persistent image. *)
        let rec until_durable () =
          let* () = commit (fun tx -> Client.set tx "zz/tick" "") in
          let* () = Engine.sleep 0.2 in
          let* { Message.ss_durable; _ } = call Message.Ss_stats_req in
          if ss_durable >= durable_floor then Future.return () else until_durable ()
        in
        let* () = until_durable () in
        let* () =
          commit (fun tx ->
              List.iter (fun i -> Client.set tx (ckey i) (Printf.sprintf "w%03d" i))
                [ 0; 4; 8; 20 ];
              List.iter (fun i -> Client.clear tx (ckey i)) [ 3; 9; 25 ];
              Client.clear_range tx ~from:(ckey 12) ~until:(ckey 17);
              Client.set tx "sc/005a" "new";
              Client.set tx "sc/007a" "gone";
              Client.set tx "sc/zz" "top")
        in
        let* () =
          commit (fun tx ->
              Client.set tx (ckey 14) "back";
              Client.clear tx "sc/007a")
        in
        let* version, rv_epoch = Client.run db (fun tx -> Client.read_snapshot tx) in
        let read ~reverse ~limit ~byte_limit =
          let+ { Message.rr_rows; rr_more } =
            call
              (Message.Storage_get_range
                 {
                   gr_from = from;
                   gr_until = until;
                   gr_version = version;
                   gr_limit = limit;
                   gr_byte_limit = byte_limit;
                   gr_reverse = reverse;
                   gr_epoch = rv_epoch;
                 })
          in
          ((reverse, limit, byte_limit), (rr_rows, rr_more))
        in
        let n = List.length model in
        let* replies =
          Future.all
            (List.concat_map
               (fun reverse ->
                 List.concat_map
                   (fun limit ->
                     List.map
                       (fun byte_limit -> read ~reverse ~limit ~byte_limit)
                       [ 1; 25; 60; max_int ])
                   [ 1; 3; n - 1; n; n + 5 ])
               [ false; true ])
        in
        Future.return replies)
  in
  List.iter
    (fun ((reverse, limit, byte_limit), (rows, more)) ->
      let case = Printf.sprintf "reverse=%b limit=%d bytes=%d" reverse limit byte_limit in
      let visible = if reverse then List.rev model else model in
      (* The budgets are checked before each row, so the first row always
         fits. *)
      let rec take acc count bytes = function
        | (k, v) :: rest when count < limit && bytes < byte_limit ->
            take ((k, v) :: acc) (count + 1) (bytes + String.length k + String.length v) rest
        | _ -> List.rev acc
      in
      let want = take [] 0 0 visible in
      Alcotest.(check (list (pair string string))) (case ^ ": rows") want rows;
      Alcotest.(check bool) (case ^ ": more") (List.length want < List.length visible) more)
    replies

(* ---------- least-loaded replica choice ---------- *)

(* 400 shards of [rows_per_shard] keys on [Config.default]'s 10 storage
   servers: 40 shards per server, on the sliding-window teams of
   [Shard_map], where consecutive shards share 2 of their 3 members. *)
let rows_per_shard = 1_000
let lkey i = Printf.sprintf "ll/%06d" i
let shard_key s = lkey (s * rows_per_shard)

let sliding_config =
  {
    Config.default with
    shard_boundaries = List.init 399 (fun s -> shard_key (s + 1));
  }

(* Load shards [first, first + n) in 500-row transactions. *)
let load_shards db ~first ~n =
  let lo = first * rows_per_shard and hi = (first + n) * rows_per_shard in
  let rec go i =
    if i >= hi then Future.return ()
    else
      let* () =
        Client.run db (fun tx ->
            for k = i to min hi (i + 500) - 1 do
              Client.set tx (lkey k) (value k)
            done;
            Future.return ())
      in
      go (i + 500)
  in
  go lo

let busy_servers db =
  Client.storage_inflight db |> Array.to_list
  |> List.mapi (fun ss n -> (ss, n))
  |> List.filter (fun (_, n) -> n > 0)

let replica_busy cluster =
  Fdb_obs.Registry.sum_counter (Cluster.metrics cluster)
    ~role:Fdb_obs.Registry.Client "read_replica_busy"

(* Start a read on a fresh transaction whose snapshot is already in hand,
   so its storage requests are sent before this returns. *)
let start_read db ~version read =
  let tx = Client.begin_tx db in
  Client.set_read_version tx version;
  read tx

let read_shards first n tx =
  Client.range_all tx
    (Range_query.keys ~limit:(n * rows_per_shard) ~from:(shard_key first)
       ~until:(shard_key (first + n)) ())

let test_sub_reads_spread () =
  (* Five reads spanning 4 consecutive shards each, then three spanning
     6. A random pick among each team's members lands two concurrent
     sub-reads on one server often enough that some of the reads would
     collide, and the colliding read would take about twice as long. A
     6-shard read launches all 6 sub-reads at once (10 servers), so it
     too costs about one 1-shard round trip. *)
  let spreads, one_ms, busy =
    with_cluster ~seed:21L ~config:sliding_config (fun cluster ->
        let db = Cluster.client cluster ~name:"spread" in
        let* () = load_shards db ~first:10 ~n:20 in
        let* () = Engine.sleep 1.0 in
        let* version = Client.get_read_version (Client.begin_tx db) in
        let rec each acc = function
          | [] -> Future.return (List.rev acc)
          | (first, n) :: rest ->
              let t0 = Engine.now () in
              let read = start_read db ~version (read_shards first n) in
              let busy = busy_servers db in
              let* rows = read in
              let ms = (Engine.now () -. t0) *. 1000.0 in
              each ((first, n, busy, List.length rows, ms) :: acc) rest
        in
        let* spreads =
          each []
            [ (10, 4); (14, 4); (18, 4); (22, 4); (26, 4); (10, 6); (16, 6); (22, 6) ]
        in
        let t0 = Engine.now () in
        let* _ = start_read db ~version (read_shards 10 1) in
        let one_ms = (Engine.now () -. t0) *. 1000.0 in
        Future.return (spreads, one_ms, replica_busy cluster))
  in
  List.iter
    (fun (first, n, busy, rows, ms) ->
      let name what = Printf.sprintf "shards %d..%d: %s" first (first + n - 1) what in
      Alcotest.(check int) (name "rows") (n * rows_per_shard) rows;
      Alcotest.(check (list int))
        (name (Printf.sprintf "one sub-read on each of %d servers" n))
        (List.init n (fun _ -> 1))
        (List.map snd busy);
      Alcotest.(check bool)
        (name (Printf.sprintf "%.2f ms within 1.3x of a 1-shard read (%.2f ms)" ms one_ms))
        true
        (ms <= 1.3 *. one_ms))
    spreads;
  Alcotest.(check int) "no read found every replica busy" 0 busy

let test_get_avoids_busy_replica () =
  (* While a one-shard range read is in flight, two point gets into the
     same shard go to the team's two other members. *)
  let outcomes =
    with_cluster ~seed:22L ~config:sliding_config (fun cluster ->
        let db = Cluster.client cluster ~name:"avoid" in
        let* () = load_shards db ~first:10 ~n:3 in
        let* () = Engine.sleep 1.0 in
        let* version = Client.get_read_version (Client.begin_tx db) in
        let sm = (Cluster.context cluster).Context.shard_map in
        let rec each acc = function
          | [] -> Future.return (List.rev acc)
          | shard :: rest ->
              let i = (shard * rows_per_shard) + 7 in
              let k = lkey i in
              let range = start_read db ~version (read_shards shard 1) in
              let gets =
                List.init 2 (fun _ -> start_read db ~version (fun tx -> Client.get tx k))
              in
              let busy = busy_servers db in
              let* rows = range in
              let* vs = Future.all gets in
              let ok =
                List.length rows = rows_per_shard
                && List.for_all (( = ) (Some (value i))) vs
              in
              let team = List.sort compare (Shard_map.team_for_key sm k) in
              each ((shard, team, busy, ok) :: acc) rest
        in
        each [] [ 10; 11; 12 ])
  in
  List.iter
    (fun (shard, team, busy, ok) ->
      let name what = Printf.sprintf "shard %d: %s" shard what in
      Alcotest.(check bool) (name "every read returned the data") true ok;
      Alcotest.(check (list (pair int int)))
        (name "one request on each team member")
        (List.map (fun ss -> (ss, 1)) team)
        busy)
    outcomes

let test_inflight_settles_after_failover () =
  let all_zero db = Array.for_all (( = ) 0) (Client.storage_inflight db) in
  (* A rejecting replica: the "ss_flaky_range" buggify point, activated
     for the run, sheds a tenth of range reads with Process_behind; 40
     rounds of 3 reads leave it unfired on fewer than 1 in 300,000
     schedules. *)
  let flaky_fired, rejected, settled_after_reject =
    with_cluster ~seed:27L ~buggify:true ~buggify_active:[ "ss_flaky_range" ]
      (fun cluster ->
        let db = Cluster.client cluster ~name:"reject" in
        let* () = populate db (List.init 60 Fun.id) in
        let before = Trace.count "client_read_failover" in
        let rec reads n =
          if n = 0 then Future.return ()
          else
            let* _ =
              Future.all
                (List.init 3 (fun _ ->
                     Client.run db (fun tx ->
                         Client.range_all tx (Range_query.prefix ~limit:100 "rp/" ()))))
            in
            reads (n - 1)
        in
        let* () = reads 40 in
        let* () = Engine.sleep 1.0 in
        Future.return
          ( List.mem "ss_flaky_range" (Buggify.points_hit ()),
            Trace.count "client_read_failover" - before,
            all_zero db ))
  in
  Alcotest.(check bool) "the flaky-range point fired" true flaky_fired;
  Alcotest.(check bool)
    (Printf.sprintf "reads failed over from rejecting replicas (%d)" rejected)
    true (rejected > 0);
  Alcotest.(check bool) "in-flight counts back to 0 after rejections" true
    settled_after_reject;
  (* A killed replica: three concurrent gets of one key go to the three
     members of its team, so one of them waits out the read timeout on the
     dead server and fails over. *)
  let timed_out, settled, ok =
    with_cluster ~seed:23L ~config:sliding_config (fun cluster ->
        let db = Cluster.client cluster ~name:"killed" in
        let* () = load_shards db ~first:10 ~n:1 in
        let* () = Engine.sleep 1.0 in
        let* version = Client.get_read_version (Client.begin_tx db) in
        let i = (10 * rows_per_shard) + 3 in
        let k = lkey i in
        let ctx = Cluster.context cluster in
        let victim = List.hd (Shard_map.team_for_key ctx.Context.shard_map k) in
        let per_machine = ctx.Context.config.Config.storage_per_machine in
        Fault_injector.kill_machine (Cluster.worker_machines cluster).(victim / per_machine);
        let before = Trace.count "client_read_failover" in
        let gets =
          List.init 3 (fun _ -> start_read db ~version (fun tx -> Client.get tx k))
        in
        let dead_busy = (Client.storage_inflight db).(victim) > 0 in
        let* vs = Future.all gets in
        Future.return
          ( dead_busy && Trace.count "client_read_failover" > before,
            all_zero db,
            List.for_all (( = ) (Some (value i))) vs ))
  in
  Alcotest.(check bool) "every get returned the value" true ok;
  Alcotest.(check bool) "a get timed out on the dead replica and failed over"
    true timed_out;
  Alcotest.(check bool) "in-flight counts back to 0 once the gets return" true
    settled

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
    Property.to_alcotest qcheck_selector_storage;
    Property.to_alcotest qcheck_selector_ryw;
    Property.to_alcotest qcheck_stream_model;
    Alcotest.test_case "tiny byte budget stitches batches" `Quick
      test_stream_stitches_batches;
    Alcotest.test_case "failover returns identical data" `Quick
      test_failover_identical_data;
    Alcotest.test_case "shard move mid-read re-resolves" `Quick
      test_shard_move_mid_read;
    Alcotest.test_case "concurrent sub-reads go to distinct replicas" `Quick
      test_sub_reads_spread;
    Alcotest.test_case "gets avoid replicas the handle keeps busy" `Quick
      test_get_avoids_busy_replica;
    Alcotest.test_case "in-flight counts settle after failover" `Quick
      test_inflight_settles_after_failover;
    Alcotest.test_case "tx options are enforced" `Quick test_tx_options;
    Alcotest.test_case "a cut-short read stops launching" `Quick
      test_cut_read_stops_launching;
    Alcotest.test_case "the launch window stays within min(limit, servers)" `Quick
      test_window_bound;
    Alcotest.test_case "storage range reads record their latency" `Quick
      test_range_read_latency;
    Alcotest.test_case "scan contract, both directions" `Quick test_scan_contract;
  ]
