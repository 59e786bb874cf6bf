(* Property test for the client's read-your-writes machinery: a random
   sequence of sets / clears / range clears / atomic adds interleaved with
   reads, executed inside ONE transaction against a live simulated cluster,
   must agree with a plain Map model at every read — and the database state
   after commit must equal the model. This exercises the write-buffer
   overlay, cleared-range masking, atomic composition, and range merging. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Rng = Fdb_util.Det_rng
module M = Map.Make (String)

let keys = Array.init 12 (fun i -> Printf.sprintf "ryw/%02d" i)
let le_bytes i = String.init 8 (fun b -> Char.chr ((i lsr (8 * b)) land 0xff))

type op =
  | Set of int * string
  | Clear of int
  | Clear_range of int * int
  | Add of int * int
  | Get of int
  | Get_range of int * int

let random_op rng =
  match Rng.int rng 6 with
  | 0 -> Set (Rng.int rng 12, Rng.alphanum rng 4)
  | 1 -> Clear (Rng.int rng 12)
  | 2 ->
      let a = Rng.int rng 12 and b = Rng.int rng 12 in
      Clear_range (min a b, max a b)
  | 3 -> Add (Rng.int rng 12, 1 + Rng.int rng 5)
  | 4 -> Get (Rng.int rng 12)
  | _ ->
      let a = Rng.int rng 12 and b = Rng.int rng 12 in
      Get_range (min a b, max a b)

let apply_model model = function
  | Set (i, v) -> M.add keys.(i) v model
  | Clear i -> M.remove keys.(i) model
  | Clear_range (a, b) ->
      M.filter (fun k _ -> not (keys.(a) <= k && k < keys.(b))) model
  | Add (i, n) -> (
      (* Same semantics as the storage server: zero-padded little-endian
         addition over whatever bytes are there (unit-tested separately). *)
      let old_value = M.find_opt keys.(i) model in
      match Fdb_kv.Mutation.atomic_result Fdb_kv.Mutation.Add ~old_value (le_bytes n) with
      | Some v -> M.add keys.(i) v model
      | None -> M.remove keys.(i) model)
  | Get _ | Get_range _ -> model

let run_sequence db ops initial =
  Client.run db (fun tx ->
      let model = ref initial in
      let rec go = function
        | [] -> Future.return true
        | op :: rest -> (
            match op with
            | Set (i, v) ->
                Client.set tx keys.(i) v;
                model := apply_model !model op;
                go rest
            | Clear i ->
                Client.clear tx keys.(i);
                model := apply_model !model op;
                go rest
            | Clear_range (a, b) ->
                Client.clear_range tx ~from:keys.(a) ~until:keys.(b);
                model := apply_model !model op;
                go rest
            | Add (i, n) ->
                Client.atomic_op tx Fdb_kv.Mutation.Add keys.(i) (le_bytes n);
                model := apply_model !model op;
                go rest
            | Get i ->
                let* v = Client.get tx keys.(i) in
                let expected = M.find_opt keys.(i) !model in
                if v = expected then go rest
                else begin
                  Printf.printf "GET %s: got %s, model %s\n" keys.(i)
                    (Option.value v ~default:"<none>")
                    (Option.value expected ~default:"<none>");
                  Future.return false
                end
            | Get_range (a, b) ->
                let* rows =
                  Client.range_all tx (Range_query.keys ~from:keys.(a) ~until:keys.(b) ())
                in
                let expected =
                  M.bindings !model
                  |> List.filter (fun (k, _) -> keys.(a) <= k && k < keys.(b))
                in
                if rows = expected then go rest
                else begin
                  Printf.printf "GET_RANGE [%s,%s): got %d rows, model %d\n" keys.(a)
                    keys.(b) (List.length rows) (List.length expected);
                  Future.return false
                end)
      in
      let* ok = go ops in
      Future.return (ok, !model))

let check_final db model =
  Client.run db (fun tx ->
      let* rows = Client.range_all tx (Range_query.prefix ~limit:100 "ryw/" ()) in
      Future.return (rows = M.bindings model))

let test_random_sequences () =
  let failures =
    Engine.run ~seed:91L ~max_time:1e5 (fun () ->
        let cluster = Cluster.create ~config:Config.test_small () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"ryw" in
        let rng = Engine.fork_rng () in
        let rec trial n failures model =
          if n = 0 then Future.return failures
          else begin
            let ops = List.init (5 + Rng.int rng 25) (fun _ -> random_op rng) in
            let* ok, model2 = run_sequence db ops model in
            let* final_ok = check_final db model2 in
            let failures =
              failures
              @ (if ok then [] else [ Printf.sprintf "trial %d: in-tx read mismatch" n ])
              @
              if final_ok then [] else [ Printf.sprintf "trial %d: committed state mismatch" n ]
            in
            trial (n - 1) failures model2
          end
        in
        trial 40 [] M.empty)
  in
  Alcotest.(check (list string)) "all trials agree with the model" [] failures

let test_snapshot_vs_default_reads () =
  (* snapshot reads must also see own writes, just without conflicts. *)
  let r =
    Engine.run ~seed:92L ~max_time:1e4 (fun () ->
        let cluster = Cluster.create ~config:Config.test_small () in
        let* () = Cluster.wait_ready cluster in
        let db = Cluster.client cluster ~name:"snap" in
        Client.run db (fun tx ->
            Client.set tx "sk" "mine";
            let* v = Client.get ~snapshot:true tx "sk" in
            Future.return v))
  in
  Alcotest.(check (option string)) "snapshot RYW" (Some "mine") r

let suite =
  [
    Alcotest.test_case "random op sequences match model" `Quick test_random_sequences;
    Alcotest.test_case "snapshot reads see own writes" `Quick test_snapshot_vs_default_reads;
  ]
