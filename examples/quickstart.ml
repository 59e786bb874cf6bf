(* Quickstart: boot a simulated FoundationDB cluster, write, read, range
   scan — the README example. Everything runs inside the deterministic
   simulator, so the output is identical on every run.

     dune exec examples/quickstart.exe *)

open Fdb_sim
open Fdb_core
open Future.Syntax

let () =
  Engine.run (fun () ->
      (* 1. Bring up a cluster (coordinators elect a ClusterController,
            which recruits the first transaction system generation). *)
      let cluster = Cluster.create () in
      let* () = Cluster.wait_ready cluster in
      Printf.printf "cluster ready at t=%.2fs (simulated)\n" (Engine.now ());

      (* 2. Open a database handle and run a transaction. [Client.run]
            retries on conflicts, just like the real bindings. *)
      let db = Cluster.client cluster ~name:"quickstart" in
      let* commit_version =
        Client.run db (fun tx ->
            Client.set tx "hello" "world";
            Client.set tx "marbles/red" "5";
            Client.set tx "marbles/blue" "3";
            Client.commit tx)
      in
      Printf.printf "committed at version %Ld\n" commit_version;

      (* 3. Read it back — point read and ordered range scan. *)
      let* value, marbles =
        Client.run db (fun tx ->
            let* value = Client.get tx "hello" in
            let* marbles = Client.range_all tx (Range_query.prefix "marbles/" ()) in
            Future.return (value, marbles))
      in
      Printf.printf "hello = %s\n" (Option.value value ~default:"<missing>");
      List.iter (fun (k, v) -> Printf.printf "  %s = %s\n" k v) marbles;

      (* 4. Atomic increment: no read conflict, ideal for hot counters. *)
      let one = String.init 8 (fun i -> if i = 0 then '\x01' else '\x00') in
      let* _ =
        Client.run db (fun tx ->
            Client.atomic_op tx Fdb_kv.Mutation.Add "visits" one;
            Future.return ())
      in
      let* visits = Client.run db (fun tx -> Client.get tx "visits") in
      (match visits with
      | Some bytes -> Printf.printf "visits = %d\n" (Char.code bytes.[0])
      | None -> ());
      Future.return ())
