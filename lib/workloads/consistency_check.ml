open Fdb_sim
open Fdb_core
open Future.Syntax

let read_replica ctx proc ~ep ~from ~until ~version ~epoch =
  let rec attempt n =
    if n = 0 then Future.return None
    else
      Future.catch
        (fun () ->
          Future.map
            (Storage_server.drain ctx ~proc ep ~from ~until ~version ~epoch)
            Option.some)
        (fun _ ->
          let* () = Engine.sleep 0.5 in
          attempt (n - 1))
  in
  attempt 10

let check cluster =
  let ctx = Cluster.context cluster in
  let db = Cluster.client cluster ~name:"consistency-check" in
  let machine = Process.fresh_machine ~dc:"dc1" 900_001 in
  let proc = Process.create ~name:"consistency-check" machine in
  Future.catch
    (fun () ->
      (* Walk the keyspace by cursor, re-resolving shard range and team
         against the live map at every step: a split, merge or move landing
         mid-walk changes shard indices, so a snapshot of the boundary
         arrays would go stale. Each shard gets a fresh read snapshot too —
         a destination that just finished a fetch rejects reads below its
         snapshot floor, and an old version would stall the walk. *)
      let rec walk cursor =
        if cursor >= Types.key_space_end then Future.return (Ok ())
        else begin
          let rec try_shard attempts =
            let _, until = Shard_map.shard_range_for_key ctx.Context.shard_map cursor in
            (* Stay inside the user key space: system shards hold SS-local
               metadata that is not replicated content. *)
            let until = min until Types.key_space_end in
            let team = Shard_map.team_for_key ctx.Context.shard_map cursor in
            let* version, epoch = Client.run db (fun tx -> Client.read_snapshot tx) in
            let* replicas =
              Future.all
                (List.map
                   (fun ss ->
                     let* rows =
                       read_replica ctx proc ~ep:ctx.Context.storage_eps.(ss)
                         ~from:cursor ~until ~version ~epoch
                     in
                     Future.return (ss, rows))
                   team)
            in
            let readable = List.filter_map (fun (ss, r) -> Option.map (fun x -> (ss, x)) r) replicas in
            match readable with
            | [] ->
                (* The team may have just changed under us (cutover between
                   resolving it and reading): re-resolve and retry. *)
                if attempts <= 1 then
                  Future.return
                    (Error (Printf.sprintf "shard [%S,%S): no readable replica" cursor until))
                else
                  let* () = Engine.sleep 1.0 in
                  try_shard (attempts - 1)
            | (ss0, rows0) :: rest ->
                let mismatch =
                  List.find_opt (fun (_, rows) -> rows <> rows0) rest
                in
                (match mismatch with
                | Some (ss1, rows1) ->
                    (* Describe the first few differing keys for debugging. *)
                    let diffs = ref [] in
                    List.iter
                      (fun (k, v) ->
                        match List.assoc_opt k rows0 with
                        | Some v0 when v0 = v -> ()
                        | Some v0 ->
                            diffs := Printf.sprintf "%S: %d=%S %d=%S" k ss1 v ss0 v0 :: !diffs
                        | None -> diffs := Printf.sprintf "%S: only on %d (=%S)" k ss1 v :: !diffs)
                      rows1;
                    List.iter
                      (fun (k, v) ->
                        if not (List.mem_assoc k rows1) then
                          diffs := Printf.sprintf "%S: only on %d (=%S)" k ss0 v :: !diffs)
                      rows0;
                    let head =
                      match !diffs with
                      | a :: b :: c :: _ -> String.concat "; " [ a; b; c ]
                      | l -> String.concat "; " l
                    in
                    Future.return
                      (Error
                         (Printf.sprintf
                            "shard [%S,%S): replica %d disagrees with replica %d [%s]"
                            cursor until ss1 ss0 head))
                | None -> Future.return (Ok until))
          in
          let* r = try_shard 8 in
          match r with
          | Ok next -> walk next
          | Error e -> Future.return (Error e)
        end
      in
      walk "")
    (fun e -> Future.return (Error ("consistency check failed: " ^ Printexc.to_string e)))
