open Fdb_sim
open Fdb_paxos
open Future.Syntax

type msg = Req of Wire.request * Wire.response Network.reply

(* Build [n] coordinator processes on separate machines, return the
   transport and the machinery for fault injection. *)
let setup_coordinators ?(n = 5) () =
  let net : msg Network.t = Network.create () in
  let machines = Array.init n (fun i -> Process.fresh_machine ~rack:(Printf.sprintf "r%d" i) i) in
  let client_machine = Process.fresh_machine ~dc:"dc0" 100 in
  let client = Process.create ~name:"client" client_machine in
  let endpoints = ref [] in
  let coordinators =
    Array.to_list machines
    |> List.map (fun m ->
           let p = Process.create ~name:"coordinator" m in
           let disk = Disk.create () in
           Disk.attach disk p;
           let ep = Network.fresh_endpoint net in
           endpoints := ep :: !endpoints;
           let serve () =
             Future.map (Server.recover ~disk ~file:"paxos" ()) (fun server ->
                 Network.register net ep p (fun (Req (r, reply)) ->
                     Network.Reply (Server.handle server r, reply)))
           in
           p.Process.boot <-
             (fun () -> Engine.spawn "coordinator-boot" (fun () -> Future.map (serve ()) ignore));
           Engine.spawn "coordinator-boot" (fun () -> Future.map (serve ()) ignore);
           (p, ep))
  in
  let transport =
    {
      Wire.endpoints = List.rev !endpoints;
      call =
        (fun ep req -> Network.call net ~timeout:1.0 ~from:client ep (fun reply -> Req (req, reply)));
    }
  in
  (net, client, coordinators, transport)

let run_until_ready body =
  Engine.run (fun () ->
      let* () = Engine.sleep 0.1 in
      (* let coordinators boot *)
      body ())

let test_write_then_read () =
  let r =
    run_until_ready (fun () ->
        let _, _, _, transport = setup_coordinators () in
        let* () = Engine.sleep 0.1 in
        let c1 = Register.create transport ~reg:"state" ~proposer:1 in
        let* _ = Register.lock_and_read c1 in
        let* () = Register.write c1 "generation-1" in
        let c2 = Register.create transport ~reg:"state" ~proposer:2 in
        Register.read c2)
  in
  Alcotest.(check (option string)) "read back" (Some "generation-1") r

let test_lock_invalidates_old_writer () =
  let r =
    run_until_ready (fun () ->
        let _, _, _, transport = setup_coordinators () in
        let* () = Engine.sleep 0.1 in
        let old_seq = Register.create transport ~reg:"state" ~proposer:1 in
        let* _ = Register.lock_and_read old_seq in
        let* () = Register.write old_seq "old" in
        (* A new recovery locks the register... *)
        let new_seq = Register.create transport ~reg:"state" ~proposer:2 in
        let* prev = Register.lock_and_read new_seq in
        (* ...so the old sequencer can no longer write. *)
        let* old_result =
          Future.catch
            (fun () -> Future.map (Register.write old_seq "zombie") (fun () -> `Wrote))
            (function Register.Lock_lost -> Future.return `Locked_out | e -> raise e)
        in
        let* () = Register.write new_seq "new" in
        let reader = Register.create transport ~reg:"state" ~proposer:3 in
        let* final = Register.read reader in
        Future.return (prev, old_result, final))
  in
  let prev, old_result, final = r in
  Alcotest.(check (option string)) "new locker saw old value" (Some "old") prev;
  Alcotest.(check bool) "old writer locked out" true (old_result = `Locked_out);
  Alcotest.(check (option string)) "final value" (Some "new") final

let test_survives_minority_failures () =
  let r =
    run_until_ready (fun () ->
        let _, _, coordinators, transport = setup_coordinators ~n:5 () in
        let* () = Engine.sleep 0.1 in
        (* Kill two of five coordinators (minority). *)
        (match coordinators with
        | (p1, _) :: (p2, _) :: _ ->
            Engine.kill p1;
            Engine.kill p2
        | _ -> assert false);
        let c = Register.create transport ~reg:"state" ~proposer:1 in
        let* _ = Register.lock_and_read c in
        let* () = Register.write c "v" in
        let reader = Register.create transport ~reg:"state" ~proposer:2 in
        Register.read reader)
  in
  Alcotest.(check (option string)) "quorum works" (Some "v") r

let test_value_survives_coordinator_reboot () =
  let r =
    run_until_ready (fun () ->
        let _, _, coordinators, transport = setup_coordinators ~n:3 () in
        let* () = Engine.sleep 0.1 in
        let c = Register.create transport ~reg:"state" ~proposer:1 in
        let* _ = Register.lock_and_read c in
        let* () = Register.write c "durable" in
        (* Reboot ALL coordinators; synced paxos state must survive. *)
        List.iter (fun (p, _) -> Engine.reboot p ~delay:0.2 ()) coordinators;
        let* () = Engine.sleep 1.0 in
        let reader = Register.create transport ~reg:"state" ~proposer:2 in
        Register.read reader)
  in
  Alcotest.(check (option string)) "durable across full reboot" (Some "durable") r

(* The register file is rewritten whole on every state change and charged
   what it holds: per register its name and promised ballot (16 bytes),
   plus the accepted ballot and value once there is one. A reboot reads
   back the very value accepted. *)
let test_register_file_charge () =
  let value = String.make 5 'v' in
  let r =
    Engine.run (fun () ->
        let disk = Disk.create () in
        let* server = Server.recover ~disk ~file:"paxos" () in
        let ballot = { Wire.round = 1; proposer = 2 } in
        let step req =
          let before = Disk.bytes_written disk in
          let+ _ = Server.handle server req in
          Disk.bytes_written disk -. before
        in
        let* prepare = step (Wire.Prepare { reg = "r"; ballot }) in
        let* accept = step (Wire.Accept { reg = "r"; ballot; value }) in
        let* second = step (Wire.Prepare { reg = "reg2"; ballot }) in
        let* server' = Server.recover ~disk ~file:"paxos" () in
        let+ read = Server.handle server' (Wire.Read { reg = "r" }) in
        ([ prepare; accept; second ], read))
  in
  let charges, read = r in
  Alcotest.(check (list (float 0.0))) "file charges"
    [ 1. +. 16.; 1. +. 16. +. 16. +. 5.; (1. +. 16. +. 16. +. 5.) +. (4. +. 16.) ]
    charges;
  Alcotest.(check bool) "reboot reads the accepted value" true
    (match read with Wire.Read_result { accepted = Some (_, v) } -> v == value | _ -> false)

let test_registers_independent () =
  let r =
    run_until_ready (fun () ->
        let _, _, _, transport = setup_coordinators () in
        let* () = Engine.sleep 0.1 in
        let a = Register.create transport ~reg:"a" ~proposer:1 in
        let b = Register.create transport ~reg:"b" ~proposer:1 in
        let* _ = Register.lock_and_read a in
        let* () = Register.write a "va" in
        let* _ = Register.lock_and_read b in
        let* () = Register.write b "vb" in
        let ra = Register.create transport ~reg:"a" ~proposer:2 in
        let rb = Register.create transport ~reg:"b" ~proposer:2 in
        let* va = Register.read ra in
        let* vb = Register.read rb in
        Future.return (va, vb))
  in
  Alcotest.(check (pair (option string) (option string)))
    "independent" (Some "va", Some "vb") r

let test_election_single_leader () =
  let r =
    run_until_ready (fun () ->
        let _, _, _, transport = setup_coordinators () in
        let* () = Engine.sleep 0.1 in
        let wins = ref [] in
        let candidates =
          List.map
            (fun i ->
              let reg =
                Register.create transport ~reg:"leader" ~proposer:i
              in
              Election.start reg
                ~self:(Printf.sprintf "cand%d" i)
                ~lease:2.0
                ~on_elected:(fun () -> wins := i :: !wins)
                ~on_deposed:(fun () -> ())
                ())
            [ 1; 2; 3 ]
        in
        let* () = Engine.sleep 5.0 in
        let leaders = List.filter Election.is_leader candidates in
        Future.return (List.length leaders, List.length !wins >= 1))
  in
  Alcotest.(check (pair int bool)) "exactly one leader" (1, true) r

let test_election_failover () =
  let r =
    run_until_ready (fun () ->
        let _, _, _, transport = setup_coordinators () in
        let* () = Engine.sleep 0.1 in
        let make i =
          let reg = Register.create transport ~reg:"leader" ~proposer:i in
          Election.start reg ~self:(Printf.sprintf "cand%d" i) ~lease:1.0
            ~on_elected:(fun () -> ())
            ~on_deposed:(fun () -> ())
            ()
        in
        let c1 = make 1 in
        let* () = Engine.sleep 2.0 in
        let first_leader = Election.is_leader c1 in
        let c2 = make 2 in
        let* () = Engine.sleep 1.0 in
        (* c1 leaves; c2 must take over after the lease expires. *)
        Election.stop c1;
        let* () = Engine.sleep 5.0 in
        Future.return (first_leader, Election.is_leader c2))
  in
  Alcotest.(check (pair bool bool)) "failover" (true, true) r

let suite =
  [
    Alcotest.test_case "write then read" `Quick test_write_then_read;
    Alcotest.test_case "lock invalidates old writer" `Quick test_lock_invalidates_old_writer;
    Alcotest.test_case "survives minority failures" `Quick test_survives_minority_failures;
    Alcotest.test_case "durable across reboot" `Quick test_value_survives_coordinator_reboot;
    Alcotest.test_case "registers independent" `Quick test_registers_independent;
    Alcotest.test_case "register file charge" `Quick test_register_file_charge;
    Alcotest.test_case "election single leader" `Quick test_election_single_leader;
    Alcotest.test_case "election failover" `Quick test_election_failover;
  ]
