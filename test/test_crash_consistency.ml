(* Crash-consistency property test for the persistent store: apply random
   mutation batches with commits at random points, crash at a random
   moment (with buggified torn writes enabled), recover — the recovered
   state must equal the model at the LAST COMMITTED batch boundary (the
   disk may admit a suffix of synced-but-unacknowledged work being absent,
   never a prefix gap or phantom data beyond what was applied). *)

open Fdb_sim
open Fdb_kv
open Future.Syntax
module Rng = Fdb_util.Det_rng
module M = Map.Make (String)

let keyn i = Printf.sprintf "k%02d" i

let random_mutation rng =
  match Rng.int rng 4 with
  | 0 | 1 -> Mutation.Set (keyn (Rng.int rng 20), Rng.alphanum rng 6)
  | 2 -> Mutation.Clear (keyn (Rng.int rng 20))
  | _ ->
      let a = Rng.int rng 20 and b = Rng.int rng 20 in
      Mutation.Clear_range (keyn (min a b), keyn (max a b))

let apply_model m = function
  | Mutation.Set (k, v) -> M.add k v m
  | Mutation.Clear k -> M.remove k m
  | Mutation.Clear_range (a, b) -> M.filter (fun k _ -> k < a || k >= b) m
  | Mutation.Atomic _ -> m

let one_trial seed =
  Engine.run ~seed ~max_time:1e6 ~buggify:true (fun () ->
      let rng = Engine.fork_rng () in
      let disk = Disk.create () in
      let* store = Persistent_store.recover ~disk ~prefix:"s" ~checkpoint_every:7 () in
      let pending = ref M.empty in
      (* Every model state reachable by a prefix of mutations at or after
         the last commit: a crash may preserve any contiguous prefix of the
         unsynced WAL tail (torn writes keep subsets, recovery keeps the
         contiguous part), but never less than the last commit. *)
      let acceptable = ref [ M.empty ] in
      let batches = 3 + Rng.int rng 15 in
      let rec run_batches i =
        if i = batches then Future.return ()
        else begin
          let muts = List.init (1 + Rng.int rng 5) (fun _ -> random_mutation rng) in
          let* () = Persistent_store.apply store muts in
          List.iter
            (fun m ->
              pending := apply_model !pending m;
              acceptable := !pending :: !acceptable)
            muts;
          if Rng.chance rng 0.7 then begin
            let* () = Persistent_store.commit store in
            (* everything before the commit is now mandatory *)
            acceptable := [ !pending ];
            run_batches (i + 1)
          end
          else run_batches (i + 1)
        end
      in
      let* () = run_batches 0 in
      Disk.crash disk;
      let* store' = Persistent_store.recover ~disk ~prefix:"s" () in
      let recovered =
        Persistent_store.range store' ~from:"" ~until:"z" ~reverse:false
        |> Seq.fold_left (fun m (k, v) -> M.add k v m) M.empty
      in
      Future.return (List.exists (M.equal ( = ) recovered) !acceptable))

let test_many_seeds () =
  for seed = 1 to 60 do
    if not (one_trial (Int64.of_int seed)) then
      Alcotest.failf "crash consistency violated at seed %d" seed
  done

let suite = [ Alcotest.test_case "random crash recovery" `Quick test_many_seeds ]
