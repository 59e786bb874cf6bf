(* Range-read pipeline bench: sequential shard walk (the pre-pipeline
   client read path, kept here verbatim as the baseline) vs the parallel
   bounded-fanout pipeline behind [Client.range_all], on a range spanning
   every shard of the cluster. Records simulated milliseconds per
   full-range read and the speedup into BENCH_range.json. Fails if the two
   paths ever return different row counts, or if the pipeline is not at
   least 2x faster. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng

(* ---------- the sequential baseline ----------

   The previous [Client.storage_get_range]: walk shard fragments strictly
   in scan order, one team at a time, next fragment only after the
   previous one answered. Replica shuffle and failover identical to the
   old code; the only adaptation is draining [rr_more] continuations
   (sequentially), since the wire format now carries a byte budget. *)
let sequential_get_range ctx proc rng ~version ~epoch ~from ~until ~limit =
  let fragments = Shard_map.shards_for_range ctx.Context.shard_map ~from ~until in
  let fetch_fragment ~f ~u ~team remaining =
    let replicas = Array.of_list team in
    Rng.shuffle rng replicas;
    let rec attempt i last_err cursor acc =
      if i >= Array.length replicas then Future.fail last_err
      else
        let ep = ctx.Context.storage_eps.(replicas.(i)) in
        Future.catch
          (fun () ->
            let* reply =
              Context.rpc ctx ~timeout:Params.client_read_timeout ~from:proc ep
                (Message.Storage_get_range
                   {
                     gr_from = cursor;
                     gr_until = u;
                     gr_version = version;
                     gr_limit = remaining - List.length acc;
                     gr_byte_limit = Params.range_bytes_want_all;
                     gr_reverse = false;
                     gr_epoch = epoch;
                   })
            in
            match reply with
            | Message.Storage_get_range_reply { rr_rows = []; _ } ->
                Future.return (List.rev acc)
            | Message.Storage_get_range_reply { rr_rows; rr_more } ->
                if rr_more && List.length acc + List.length rr_rows < remaining
                then
                  let last = fst (List.hd (List.rev rr_rows)) in
                  attempt i last_err (Types.next_key last)
                    (List.rev_append rr_rows acc)
                else Future.return (List.rev (List.rev_append rr_rows acc))
            | _ -> Future.fail (Error.Fdb Error.Timed_out))
          (function
            | Error.Fdb Error.Transaction_too_old as e -> Future.fail e
            | Engine.Timed_out -> attempt (i + 1) (Error.Fdb Error.Timed_out) f []
            | Error.Fdb _ as e -> attempt (i + 1) e f []
            | e -> Future.fail e)
    in
    attempt 0 (Error.Fdb Error.Timed_out) f []
  in
  let rec walk fragments acc remaining =
    match fragments with
    | [] -> Future.return (List.concat (List.rev acc))
    | _ when remaining <= 0 -> Future.return (List.concat (List.rev acc))
    | (f, u, team) :: rest ->
        let* rows = fetch_fragment ~f ~u ~team remaining in
        walk rest (rows :: acc) (remaining - List.length rows)
  in
  walk fragments [] limit

(* ---------- measurement ---------- *)

let time_reads label reads =
  let* () = Future.return () in
  let t0 = Engine.now () in
  let* rows = reads () in
  let elapsed = Engine.now () -. t0 in
  Printf.printf "%-28s %8.2f ms  (%d rows)\n%!" label (elapsed *. 1000.0) rows;
  Future.return (elapsed, rows)

let write_json ~smoke ~shards ~rows ~fanout ~seq_ms ~pipe_ms ~speedup =
  let oc = open_out "BENCH_range.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"range_read\",\n";
  Printf.fprintf oc "  \"mode\": \"%s\",\n" (if smoke then "smoke" else "full");
  Printf.fprintf oc "  \"shards\": %d,\n" shards;
  Printf.fprintf oc "  \"rows\": %d,\n" rows;
  Printf.fprintf oc "  \"fanout\": %d,\n" fanout;
  Printf.fprintf oc "  \"sequential_ms_per_read\": %.3f,\n" seq_ms;
  Printf.fprintf oc "  \"pipelined_ms_per_read\": %.3f,\n" pipe_ms;
  Printf.fprintf oc "  \"speedup\": %.2f\n" speedup;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote BENCH_range.json\n%!"

let run ?(smoke = false) () =
  Bench_util.header "Range-read pipeline: sequential shard walk vs bounded fan-out";
  let universe = if smoke then 2_000 else 20_000 in
  let iters = if smoke then 3 else 10 in
  let config =
    Bench_util.shard_evenly Config.default ~universe ~key_of:Bench_util.key
  in
  let shards = ref 0 and fanout = Params.client_range_fanout in
  let seq_ms = ref 0.0 and pipe_ms = ref 0.0 and row_count = ref 0 in
  let mismatch = ref None in
  Bench_util.with_sim ~cpu_scale:1.0 config (fun cluster ->
      let* () = Bench_util.preload cluster ~universe in
      let ctx = Cluster.context cluster in
      shards := Shard_map.shard_count ctx.Context.shard_map;
      let db = Cluster.client cluster ~name:"range-bench" in
      let machine = Process.fresh_machine ~dc:"dc1" 920_000 in
      let probe = Process.create ~name:"range-bench-seq" machine in
      let rng = Engine.fork_rng () in
      let from = Bench_util.key 0 and until = Bench_util.key universe in
      let limit = universe + 10 in
      (* A fresh snapshot per iteration, shared by both paths so they read
         the same data at the same version. *)
      let iteration () =
        let tx = Client.begin_tx db in
        let* version, epoch = Client.read_snapshot tx in
        let* seq, nseq =
          time_reads "sequential walk" (fun () ->
              let* rows =
                sequential_get_range ctx probe rng ~version ~epoch ~from ~until
                  ~limit
              in
              Future.return (List.length rows))
        in
        let* pipe, npipe =
          time_reads "pipelined fan-out" (fun () ->
              let tx = Client.begin_tx db in
              Client.set_read_version tx version;
              let* rows =
                Client.range_all tx (Range_query.keys ~limit ~from ~until ())
              in
              Future.return (List.length rows))
        in
        if nseq <> npipe then mismatch := Some (nseq, npipe);
        seq_ms := !seq_ms +. (seq *. 1000.0);
        pipe_ms := !pipe_ms +. (pipe *. 1000.0);
        row_count := nseq;
        Future.return ()
      in
      let rec loop i = if i = 0 then Future.return () else
          let* () = iteration () in
          loop (i - 1)
      in
      loop iters);
  Option.iter
    (fun (nseq, npipe) ->
      failwith
        (Printf.sprintf "range read row-count mismatch: sequential %d, pipelined %d"
           nseq npipe))
    !mismatch;
  let seq_ms = !seq_ms /. float_of_int iters in
  let pipe_ms = !pipe_ms /. float_of_int iters in
  let speedup = seq_ms /. Float.max pipe_ms 1e-9 in
  Printf.printf
    "shards: %d, rows: %d, fanout: %d\nmean per read: sequential %.2f ms, pipelined %.2f ms (%.2fx)\n"
    !shards !row_count fanout seq_ms pipe_ms speedup;
  write_json ~smoke ~shards:!shards ~rows:!row_count ~fanout ~seq_ms ~pipe_ms ~speedup;
  if speedup < 2.0 then
    failwith
      (Printf.sprintf "range fan-out speedup regressed: %.2fx < 2x over %d shards"
         speedup !shards)
