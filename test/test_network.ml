open Fdb_sim
open Future.Syntax

(* [Ping n] answers [n + 1], [Fetch n] a freshly allocated [ref (n + 1)];
   [Note n] is one-way. *)
type msg =
  | Ping of int * int Network.reply
  | Fetch of int * int ref Network.reply
  | Note of int

let ping n reply = Ping (n, reply)

let setup () =
  let net : msg Network.t = Network.create () in
  let m1 = Process.fresh_machine ~dc:"dc1" 1 in
  let m2 = Process.fresh_machine ~dc:"dc1" 2 in
  let client = Process.create ~name:"client" m1 in
  let server = Process.create ~name:"server" m2 in
  let ep = Network.fresh_endpoint net in
  Network.register net ep server (function
    | Ping (n, reply) -> Network.Reply (Future.return (n + 1), reply)
    | Fetch _ | Note _ -> Network.Done (Future.fail Exit));
  (net, client, server, ep)

let test_rpc_roundtrip () =
  let r =
    Engine.run (fun () ->
        let net, client, _server, ep = setup () in
        let+ n = Network.call net ~from:client ep (ping 1) in
        (n, Engine.now ()))
  in
  Alcotest.(check int) "incremented" 2 (fst r);
  Alcotest.(check bool) "took nonzero simulated time" true (snd r > 0.0);
  Alcotest.(check bool) "intra-dc fast" true (snd r < 0.01)

let expect_timeout fut =
  Future.catch
    (fun () -> Future.map fut (fun _ -> false))
    (function Engine.Timed_out -> Future.return true | e -> raise e)

let test_rpc_timeout_on_partition () =
  let r =
    Engine.run (fun () ->
        let net, client, server, ep = setup () in
        Network.partition net ~from:client.Process.machine.Process.machine_id
          ~to_:server.Process.machine.Process.machine_id;
        expect_timeout (Network.call net ~timeout:1.0 ~from:client ep (ping 1)))
  in
  Alcotest.(check bool) "timed out" true r

let test_one_way_partition_also_times_out () =
  (* Reply path blocked: request arrives, response cannot return. *)
  let r =
    Engine.run (fun () ->
        let net, client, server, ep = setup () in
        Network.partition net ~from:server.Process.machine.Process.machine_id
          ~to_:client.Process.machine.Process.machine_id;
        expect_timeout (Network.call net ~timeout:1.0 ~from:client ep (ping 1)))
  in
  Alcotest.(check bool) "timed out" true r

let test_heal_restores () =
  let r =
    Engine.run (fun () ->
        let net, client, server, ep = setup () in
        let cm = client.Process.machine.Process.machine_id in
        let sm = server.Process.machine.Process.machine_id in
        Network.partition net ~from:cm ~to_:sm;
        let* timed_out = expect_timeout (Network.call net ~timeout:0.5 ~from:client ep (ping 1)) in
        Network.heal net ~from:cm ~to_:sm;
        let+ n = Network.call net ~from:client ep (ping 5) in
        (timed_out, n))
  in
  Alcotest.(check (pair bool int)) "healed" (true, 6) r

let test_dead_server_times_out () =
  let r =
    Engine.run (fun () ->
        let net, client, server, ep = setup () in
        Engine.kill server;
        expect_timeout (Network.call net ~timeout:1.0 ~from:client ep (ping 1)))
  in
  Alcotest.(check bool) "timed out" true r

(* ---------- refused or silent: the two failure detectors ----------

   A process that dies on a machine that stays up is refused by that
   machine, so its callers fail one round trip later; a machine that is
   down, or cut off by a partition, is silent, and only the call's own
   timeout ends the call. *)

(* [setup], with a second live process on the server's machine. *)
let setup_shared () =
  let ((_, _, server, _) as s) = setup () in
  let (_neighbour : Process.t) = Process.create ~name:"neighbour" server.Process.machine in
  s

(* How [fut] ended, and how long after [t0]. *)
let outcome_since t0 fut =
  Future.catch
    (fun () -> Future.map fut (fun n -> (string_of_int n, Engine.now () -. t0)))
    (fun e -> Future.return (Printexc.to_string e, Engine.now () -. t0))

(* Apply [fault] to the server, then call it with a 1 s timeout. *)
let call_after fault =
  Engine.run (fun () ->
      let net, client, server, ep = setup_shared () in
      let* () = fault net client server in
      outcome_since (Engine.now ()) (Network.call net ~timeout:1.0 ~from:client ep (ping 1)))

let timed_out = Printexc.to_string Engine.Timed_out

let check_refused (outcome, took) =
  Alcotest.(check string) "the call fails with Timed_out" timed_out outcome;
  if took > 0.01 then Alcotest.failf "refused after %.4f s, not within one round trip" took

let check_silent (outcome, took) =
  Alcotest.(check string) "the call fails with Timed_out" timed_out outcome;
  if took < 1.0 then Alcotest.failf "ended after %.4f s, before its 1 s timeout" took

let test_dead_process_refused () =
  check_refused
    (call_after (fun _net _client server ->
         Engine.kill server;
         Future.return ()))

(* The request is on the wire, or being served, when the server dies: the
   machine resets the connection instead of leaving the caller waiting. *)
let test_pending_call_reset () =
  check_refused
    (Engine.run (fun () ->
         let net, client, server, _ep = setup_shared () in
         let never = Network.fresh_endpoint net in
         Network.register net never server (function
           | Ping (_, reply) -> Network.Reply (fst (Future.make ()), reply)
           | Fetch _ | Note _ -> Network.Done (Future.fail Exit));
         let call = Network.call net ~timeout:1.0 ~from:client never (ping 1) in
         let* () = Engine.sleep 0.1 in
         Engine.kill server;
         outcome_since (Engine.now ()) call))

let test_stale_endpoint_refused () =
  check_refused
    (call_after (fun net _client server ->
         (* The new incarnation serves a different endpoint. *)
         server.Process.boot <-
           (fun () ->
             Network.register net (Network.fresh_endpoint net) server (function
               | Ping (n, reply) -> Network.Reply (Future.return n, reply)
               | Fetch _ | Note _ -> Network.Done (Future.fail Exit)));
         Engine.reboot server ~delay:0.1 ();
         Engine.sleep 0.5))

let kill_machine (server : Process.t) =
  List.iter Engine.kill server.Process.machine.Process.machine_processes

let test_down_machine_and_partition_silent () =
  (* The whole machine is down: nobody is left to refuse. *)
  check_silent
    (call_after (fun _net _client server ->
         kill_machine server;
         Future.return ()));
  (* The process is dead, but its machine cannot reach the caller. *)
  check_silent
    (call_after (fun net client server ->
         Network.partition net ~from:server.Process.machine.Process.machine_id
           ~to_:client.Process.machine.Process.machine_id;
         Engine.kill server;
         Future.return ()));
  (* A call in flight when the whole machine goes down. *)
  check_silent
    (Engine.run (fun () ->
         let net, client, server, ep = setup_shared () in
         let t0 = Engine.now () in
         let call = Network.call net ~timeout:1.0 ~from:client ep (ping 1) in
         kill_machine server;
         outcome_since t0 call))

(* ---------- only the calling incarnation sees the answer ---------- *)

(* The client calls [ep] in its own process context (so the call's timeout
   belongs to it), then reboots at 0.05 s and is back at 0.06 s; [fault]
   runs at 0.1 s. Whatever then reaches the client must run none of the old
   incarnation's continuation, not even the call's timeout. *)
let old_continuation_runs ep_of fault =
  Engine.run (fun () ->
      let net, client, server, _ep = setup_shared () in
      let ep = ep_of net server in
      let ran = ref false in
      Engine.with_process client (fun () ->
          Future.on_resolve (Network.call net ~timeout:1.0 ~from:client ep (ping 1)) (fun _ ->
              ran := true));
      let* () = Engine.sleep 0.05 in
      Engine.reboot client ~delay:0.01 ();
      let* () = Engine.sleep 0.05 in
      fault server;
      let* () = Engine.sleep 2.0 in
      Future.return !ran)

(* The server answers 0.2 s after the request arrives. *)
let slow_endpoint net server =
  let ep = Network.fresh_endpoint net in
  Network.register net ep server (function
    | Ping (n, reply) ->
        Network.Reply (Future.map (Engine.sleep 0.2) (fun () -> n + 1), reply)
    | Fetch _ | Note _ -> Network.Done (Future.fail Exit));
  ep

let test_reply_to_rebooted_caller_dropped () =
  Alcotest.(check bool) "the old continuation never ran" false
    (old_continuation_runs slow_endpoint (fun _ -> ()))

let test_refusal_to_rebooted_caller_dropped () =
  Alcotest.(check bool) "the old continuation never ran" false
    (old_continuation_runs slow_endpoint Engine.kill)

let test_rebooted_server_needs_reregistration () =
  let r =
    Engine.run (fun () ->
        let net, client, server, ep = setup () in
        server.Process.boot <- (fun () ->
            Network.register net ep server (function
              | Ping (n, reply) -> Network.Reply (Future.return (n + 100), reply)
              | Fetch _ | Note _ -> Network.Done (Future.fail Exit)));
        Engine.reboot server ~delay:0.1 ();
        let* () = Engine.sleep 0.5 in
        Network.call net ~from:client ep (ping 1))
  in
  Alcotest.(check int) "new incarnation handler" 101 r

let test_clog_delays () =
  let r =
    Engine.run (fun () ->
        let net, client, server, ep = setup () in
        Network.clog_machine net server.Process.machine.Process.machine_id
          (Engine.now () +. 2.0);
        let t0 = Engine.now () in
        let* _ = Network.call net ~timeout:10.0 ~from:client ep (ping 1) in
        Future.return (Engine.now () -. t0))
  in
  Alcotest.(check bool) "delayed by clog" true (r >= 2.0)

let test_cross_dc_latency () =
  let r =
    Engine.run (fun () ->
        let net : msg Network.t = Network.create () in
        let m1 = Process.fresh_machine ~dc:"east" 1 in
        let m2 = Process.fresh_machine ~dc:"west" 2 in
        Network.set_dc_latency net "east" "west" 0.06;
        let client = Process.create m1 in
        let server = Process.create m2 in
        let ep = Network.fresh_endpoint net in
        Network.register net ep server (function
          | Ping (n, reply) -> Network.Reply (Future.return n, reply)
          | Fetch _ | Note _ -> Network.Done (Future.fail Exit));
        let t0 = Engine.now () in
        let* _ = Network.call net ~timeout:10.0 ~from:client ep (ping 0) in
        Future.return (Engine.now () -. t0))
  in
  Alcotest.(check bool) "round trip >= 2x WAN" true (r >= 0.12)

let test_send_one_way () =
  let r =
    Engine.run (fun () ->
        let net : msg Network.t = Network.create () in
        let m = Process.fresh_machine 1 in
        let client = Process.create m in
        let server = Process.create m in
        let got = ref 0 in
        let ep = Network.fresh_endpoint net in
        Network.register net ep server (function
          | Note n ->
              got := n;
              Network.Done (Future.return ())
          | Ping _ | Fetch _ -> Network.Done (Future.fail Exit));
        Network.send net ~from:client ep (Note 9);
        let* () = Engine.sleep 0.1 in
        Future.return !got)
  in
  Alcotest.(check int) "delivered" 9 r

(* A delivered reply must not stay reachable from the pending timeout
   timer: after the reply lands and before the timeout fires, a full major
   collection frees the reply payload. *)
let test_reply_not_retained_by_timer () =
  let w = Weak.create 1 in
  let freed =
    Engine.run (fun () ->
        let net : msg Network.t = Network.create () in
        let m1 = Process.fresh_machine ~dc:"dc1" 1 in
        let client = Process.create ~name:"client" m1 in
        let server = Process.create ~name:"server" m1 in
        let ep = Network.fresh_endpoint net in
        Network.register net ep server (function
          | Fetch (n, reply) ->
              let answer = ref (n + 1) in
              Weak.set w 0 (Some answer);
              Network.Reply (Future.return answer, reply)
          | Ping _ | Note _ -> Network.Done (Future.fail Exit));
        let* answer =
          Network.call net ~timeout:5.0 ~from:client ep (fun reply -> Fetch (1, reply))
        in
        let delivered = !answer = 2 in
        let* () = Engine.sleep 1.0 in
        Gc.full_major ();
        Future.return (delivered && not (Weak.check w 0)))
  in
  Alcotest.(check bool) "reply freed before the timeout fires" true freed

(* ---------- Context.serve: the RPC contract ----------

   A handler that answers [Error e] sends [e] back; a handler whose future
   fails sends nothing, and the network traces [rpc_handler_error]. *)

module Context = Fdb_core.Context
module Message = Fdb_core.Message
module Error = Fdb_core.Error

(* [Ping] is answered with an error; every other request fails its future. *)
let contract_handler (type r) (req : r Message.req) : (r, Error.t) result Future.t =
  match req with
  | Message.Ping -> Future.return (Error Error.Wrong_epoch)
  | _ -> Future.fail Exit

let serve_contract () =
  let ctx = Test_log_server.mini_ctx () in
  let m = Process.fresh_machine 1 in
  let client = Process.create ~name:"client" m in
  let server = Process.create ~name:"server" m in
  let ep = Network.fresh_endpoint ctx.Context.net in
  Context.serve ctx ep server { handle = contract_handler };
  (ctx, client, ep)

(* Run [call] and report how it failed and after how long. *)
let failure_of call =
  let t0 = Engine.now () in
  Future.catch
    (fun () ->
      let+ _ = call () in
      ("answered", Engine.now () -. t0))
    (fun e -> Future.return (Printexc.to_string e, Engine.now () -. t0))

let test_serve_error_answer () =
  let (outcome, took), traced =
    Engine.run (fun () ->
        let ctx, client, ep = serve_contract () in
        let+ r =
          failure_of (fun () -> Context.rpc ctx ~timeout:1.0 ~from:client ep Message.Ping)
        in
        (r, Trace.count "rpc_handler_error"))
  in
  Alcotest.(check string) "raised as Error.Fdb"
    (Printexc.to_string (Error.Fdb Error.Wrong_epoch))
    outcome;
  Alcotest.(check bool) "after one round trip, not the timeout" true (took < 1e-3);
  Alcotest.(check int) "no handler error" 0 traced

let test_serve_failed_future_sends_nothing () =
  let (outcome, took), traced =
    Engine.run (fun () ->
        let ctx, client, ep = serve_contract () in
        let+ r =
          failure_of (fun () ->
              Context.rpc ctx ~timeout:1.0 ~from:client ep
                (Message.Seq_report { committed = 1L }))
        in
        (r, Trace.count "rpc_handler_error"))
  in
  Alcotest.(check string) "the caller times out" (Printexc.to_string Engine.Timed_out) outcome;
  Alcotest.(check bool) "at its timeout" true (took >= 1.0);
  Alcotest.(check int) "rpc_handler_error traced once" 1 traced

let test_send_failure_traced () =
  let traced =
    Engine.run (fun () ->
        let ctx, client, ep = serve_contract () in
        Context.send ctx ~from:client ep (Message.Log_pop { tag = 0; up_to = 1L });
        let+ () = Engine.sleep 0.1 in
        Trace.count "rpc_handler_error")
  in
  Alcotest.(check int) "rpc_handler_error traced once" 1 traced

(* ---------- Context.wait_failure: the held long-poll ----------

   A role holds each [Wait_failure] it is sent (Failure_watch): it answers
   [Ok] after the heartbeat interval, [Wrong_epoch] the moment the role
   ends, and nothing at all when its process dies. Then the live machine
   refuses the open call, and a machine that is down stays silent until the
   poll's own timeout. *)

module Failure_watch = Fdb_core.Failure_watch
module Params = Fdb_core.Params

(* Poll a role that shares its machine with a second process; apply
   [fault] to the role's watch and process 0.1 s later. *)
let held_poll fault =
  Engine.run (fun () ->
      let ctx = Test_log_server.mini_ctx () in
      let client = Process.create ~name:"client" (Process.fresh_machine 1) in
      let machine = Process.fresh_machine 2 in
      let role = Process.create ~name:"role" machine in
      let (_neighbour : Process.t) = Process.create ~name:"neighbour" machine in
      let watch : unit Failure_watch.t = Failure_watch.create role in
      let handle (type r) (req : r Message.req) : (r, Error.t) result Future.t =
        match req with
        | Message.Wait_failure -> Failure_watch.hold watch Fun.id
        | _ -> Future.fail Exit
      in
      let ep = Network.fresh_endpoint ctx.Context.net in
      Context.serve ctx ep role { handle };
      Engine.schedule ~after:0.1 (fun () -> fault watch role);
      failure_of (fun () -> Context.wait_failure ctx ~from:client ep Message.Wait_failure))

let test_held_poll_answers_after_interval () =
  let outcome, took = held_poll (fun _ _ -> ()) in
  Alcotest.(check string) "answered Ok" "answered" outcome;
  if took < Params.heartbeat_interval || took > Params.heartbeat_interval +. 0.01 then
    Alcotest.failf "answered after %.4f s, not one heartbeat interval plus a round trip" took

let test_held_poll_answered_at_role_end () =
  let outcome, took = held_poll (fun watch _ -> Failure_watch.fail watch) in
  Alcotest.(check string) "answered Wrong_epoch"
    (Printexc.to_string (Error.Fdb Error.Wrong_epoch))
    outcome;
  if took > 0.11 then Alcotest.failf "answered %.4f s after the poll, not at the role's end" took

let test_held_poll_refused_at_process_death () =
  let outcome, took = held_poll (fun _ role -> Engine.kill role) in
  Alcotest.(check string) "the poll fails with Timed_out" timed_out outcome;
  if took > 0.11 then Alcotest.failf "refused %.4f s after the poll, not at the death" took

let test_held_poll_silent_when_machine_down () =
  let outcome, took =
    held_poll (fun _ role -> List.iter Engine.kill role.Process.machine.Process.machine_processes)
  in
  Alcotest.(check string) "the poll fails with Timed_out" timed_out outcome;
  let timeout = Params.heartbeat_interval +. Params.heartbeat_timeout in
  if took < timeout then Alcotest.failf "ended after %.4f s, before its %.2f s timeout" took timeout

let suite =
  [
    Alcotest.test_case "rpc roundtrip" `Quick test_rpc_roundtrip;
    Alcotest.test_case "timeout on partition" `Quick test_rpc_timeout_on_partition;
    Alcotest.test_case "one-way partition" `Quick test_one_way_partition_also_times_out;
    Alcotest.test_case "heal restores" `Quick test_heal_restores;
    Alcotest.test_case "dead server times out" `Quick test_dead_server_times_out;
    Alcotest.test_case "reboot reregistration" `Quick test_rebooted_server_needs_reregistration;
    Alcotest.test_case "dead process on a live machine refused" `Quick test_dead_process_refused;
    Alcotest.test_case "pending call reset when its callee dies" `Quick test_pending_call_reset;
    Alcotest.test_case "rebooted process's old endpoint refused" `Quick test_stale_endpoint_refused;
    Alcotest.test_case "down machine and partition stay silent" `Quick
      test_down_machine_and_partition_silent;
    Alcotest.test_case "a reply to a rebooted caller is dropped" `Quick
      test_reply_to_rebooted_caller_dropped;
    Alcotest.test_case "a refusal to a rebooted caller is dropped" `Quick
      test_refusal_to_rebooted_caller_dropped;
    Alcotest.test_case "clog delays" `Quick test_clog_delays;
    Alcotest.test_case "held poll answered after the interval" `Quick
      test_held_poll_answers_after_interval;
    Alcotest.test_case "held poll answered at the role's end" `Quick
      test_held_poll_answered_at_role_end;
    Alcotest.test_case "held poll refused at process death" `Quick
      test_held_poll_refused_at_process_death;
    Alcotest.test_case "held poll silent when the machine is down" `Quick
      test_held_poll_silent_when_machine_down;
    Alcotest.test_case "cross-dc latency" `Quick test_cross_dc_latency;
    Alcotest.test_case "one-way send" `Quick test_send_one_way;
    Alcotest.test_case "reply not retained by timer" `Quick test_reply_not_retained_by_timer;
    Alcotest.test_case "serve: error answer" `Quick test_serve_error_answer;
    Alcotest.test_case "serve: failed future sends nothing" `Quick
      test_serve_failed_future_sends_nothing;
    Alcotest.test_case "serve: one-way failure traced" `Quick test_send_failure_traced;
  ]
