type recorded = {
  rc_read_version : int64;
  rc_commit_version : int64;
  rc_reads : (string * string option) list;
  rc_writes : (string * string option) list;
}

type t = { mutable history : recorded list }

let create () = { history = [] }
let record t r = t.history <- r :: t.history

(* Per-key write history: (commit version, value) newest first, built in
   commit order; a read at version v must observe the newest write <= v. *)
let verify t =
  let txns =
    List.sort (fun a b -> compare a.rc_commit_version b.rc_commit_version) t.history
  in
  (* Commit versions must be unique per write (batched transactions share a
     version only when they do not overlap in keys — resolvers guarantee
     non-conflicting, but two blind writes to the same key could share a
     version; writes within one version apply in batch order, which we
     conservatively allow by letting later records override). *)
  let writes : (string, (int64 * string option) list ref) Hashtbl.t = Hashtbl.create 256 in
  let push k v cv =
    match Hashtbl.find_opt writes k with
    | Some l -> l := (cv, v) :: !l
    | None -> Hashtbl.add writes k (ref [ (cv, v) ])
  in
  (* All values written at the newest commit version <= v. Transactions
     batched by a proxy share one commit version (§2.6); when several wrote
     the same key, the observable winner is their batch order, which the
     client cannot know — any of the tied values is a legal observation. *)
  let candidates_at k v =
    match Hashtbl.find_opt writes k with
    | None -> [ None ]
    | Some l -> (
        match List.find_opt (fun (cv, _) -> cv <= v) !l with
        | None -> [ None ]
        | Some (newest, _) ->
            List.filter_map (fun (cv, value) -> if cv = newest then Some value else None) !l)
  in
  let check_txn txn =
    List.fold_left
      (fun acc (k, observed) ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            let expected = candidates_at k txn.rc_read_version in
            if List.mem observed expected then Ok ()
            else
              Error
                (Printf.sprintf
                   "read of %S at version %Ld observed %s but the serial history says %s \
                    (txn committed at %Ld)"
                   k txn.rc_read_version
                   (match observed with Some s -> Printf.sprintf "%S" s | None -> "<absent>")
                   (String.concat " | "
                      (List.map
                         (function Some s -> Printf.sprintf "%S" s | None -> "<absent>")
                         expected))
                   txn.rc_commit_version))
      (Ok ()) txn.rc_reads
  in
  let rec walk = function
    | [] -> Ok ()
    | txn :: rest -> (
        match check_txn txn with
        | Error _ as e -> e
        | Ok () ->
            List.iter (fun (k, v) -> push k v txn.rc_commit_version) txn.rc_writes;
            walk rest)
  in
  walk txns
