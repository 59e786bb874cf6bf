(* The client's retry path against scripted roles: how long [Client.run]
   sleeps before each retry; how a handle's held poll on the
   ClusterController delivers a new generation's proxies, and how
   concurrent callers share that one poll (client) or one coordinator read
   (storage server) instead of sleeping or asking on their own. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Registry = Fdb_obs.Registry

(* The delay the scripted ClusterController and coordinator take to answer
   at once: long enough that every concurrent caller arrives while it is
   pending. *)
let answer_delay = 0.02

(* A caller resumed by the shared poll is answered within a few network
   hops of it; one that slept a fixed 0.1 s instead is not. *)
let hops = 0.005

(* A scripted ClusterController: it answers a [Cc_get_state] poll after
   [answer_delay] when its generation is recovered and not the caller's,
   else holds it for [Params.heartbeat_interval] or until [publish]. *)
type cc = {
  proc : Process.t;
  calls : int ref;  (* Cc_get_state polls received *)
  max_inflight : int ref;  (* most polls pending at once *)
  answered_at : float list ref;  (* newest first *)
  publish : int list -> unit;  (* a new generation on these proxies recovers *)
  elected_at : float option ref;  (* when it won the election *)
  election : Fdb_paxos.Election.t;  (* stop it to end the run *)
}

type world = {
  ctx : Context.t;
  client : Process.t;
  serve : Process.t -> Context.handler -> int;
  cc : cc;  (* the first ClusterController, on machine 0 *)
}

(* Run a scripted ClusterController on machine [machine]'s worker endpoint,
   campaigning for the "cc-leader" register. Its generation is [epoch], not
   recovered, until the first [publish] recovers generation [epoch + 1]. *)
let start_cc ctx ~machine ~epoch =
  let proc = Process.create ~name:(Printf.sprintf "cc-%d" machine) (Process.fresh_machine machine) in
  let epoch = ref epoch and recovered = ref false and proxies = ref [] in
  let calls = ref 0 and max_inflight = ref 0 and answered = ref [] and polls = ref [] in
  let reply (fut, p) =
    if Future.is_pending fut then begin
      answered := Engine.now () :: !answered;
      Future.fulfill p
        (Ok
           {
             Message.st_epoch = !epoch;
             st_proxies = !proxies;
             st_logs = [];
             st_recovered = !recovered;
             st_dd = None;
           })
    end
  in
  let cc_role (type r) (req : r Message.req) : (r, Error.t) result Future.t =
    match req with
    | Message.Cc_get_state { cg_known } ->
        incr calls;
        let poll : (Message.cc_state, Error.t) result Future.t * _ = Future.make () in
        polls := poll :: List.filter (fun (f, _) -> Future.is_pending f) !polls;
        max_inflight := max !max_inflight (List.length !polls);
        let after =
          if !recovered && !epoch <> cg_known then answer_delay else Params.heartbeat_interval
        in
        Engine.schedule ~after ~process:proc (fun () -> reply poll);
        fst poll
    | _ -> fst (Future.make ())
  in
  Context.serve ctx ctx.Context.worker_eps.(machine) proc { handle = cc_role };
  let publish ps =
    incr epoch;
    recovered := true;
    proxies := ps;
    List.iter reply !polls;
    polls := []
  in
  let elected_at = ref None in
  let election =
    Fdb_paxos.Election.start
      (Fdb_paxos.Register.create
         (Context.paxos_transport ctx ~from:proc)
         ~reg:"cc-leader" ~proposer:(Context.proposer_id proc))
      ~self:(string_of_int machine) ~lease:Params.lease_duration
      ~on_elected:(fun () -> elected_at := Some (Engine.now ()))
      ~on_deposed:ignore ()
  in
  { proc; calls; max_inflight; answered_at = answered; publish; elected_at; election }

(* A client's world with scripted roles: a real coordinator, and worker
   endpoints for machines 0 and 1 with a scripted ClusterController on
   machine 0 that wins a real election for the "cc-leader" register. *)
let client_world () =
  let net = Network.create () in
  let coord_ep = Network.fresh_endpoint net in
  let worker_eps = Array.init 2 (fun _ -> Network.fresh_endpoint net) in
  let ctx =
    {
      (Test_log_server.mini_ctx ()) with
      Context.net;
      coordinator_eps = [ coord_ep ];
      worker_eps;
    }
  in
  let coord = Process.create ~name:"coordinator" (Process.fresh_machine 2) in
  Coordinator.start ctx coord ~disk:(Disk.create ()) ~endpoint:coord_ep;
  let serve proc handler =
    let ep = Network.fresh_endpoint net in
    Context.serve ctx ep proc handler;
    ep
  in
  let cc = start_cc ctx ~machine:0 ~epoch:0 in
  let client = Process.create ~name:"client" (Process.fresh_machine 3) in
  { ctx; client; serve; cc }

(* Sleep until [cc] has won its election, so the coordinators name it. *)
let rec until_elected cc =
  if !(cc.elected_at) <> None then Future.return ()
  else
    let* () = Engine.sleep 0.05 in
    until_elected cc

(* A proxy on its own process that answers a GRV with version 5 when
   [on_grv ()] is [Ok ()], else refuses it with that error; it answers
   nothing else. *)
let grv_proxy w name on_grv =
  let handle (type r) (req : r Message.req) : (r, Error.t) result Future.t =
    match req with
    | Message.Grv_req ->
        Future.return
          (Result.map (fun () -> { Message.gv_version = 5L; gv_epoch = 1 }) (on_grv ()))
    | _ -> fst (Future.make ())
  in
  w.serve (Process.create ~name (Process.fresh_machine 4)) { handle }

let stale_proxy_calls w =
  List.fold_left (fun n (_, c) -> n + c) 0
    (Registry.counters w.ctx.Context.metrics ~role:Registry.Client "stale_proxy_calls")

(* ---------- the backoff rule ---------- *)

(* A transaction against a proxy that answers [Not_committed] [failures]
   times, then commits. Returns the sleep before each retry, measured from
   the instant an attempt's commit fails to the instant the next attempt
   starts, and the client's [retry_delay] histogram. *)
let scripted_retries ~failures =
  Engine.run ~seed:3L ~max_time:1e5 (fun () ->
      let w = client_world () in
      let commits = ref 0 in
      let proxy (type r) (req : r Message.req) : (r, Error.t) result Future.t =
        match req with
        | Message.Commit_req _ ->
            incr commits;
            Future.return (if !commits <= failures then Error Error.Not_committed else Ok 7L)
        | _ -> fst (Future.make ())
      in
      w.cc.publish [ w.serve (Process.create ~name:"proxy" (Process.fresh_machine 4)) { handle = proxy } ];
      let* () = Engine.sleep 1.0 in
      let db = Client.create_db w.ctx w.client in
      let* () = Client.refresh db in
      let started = ref [] and failed = ref [] in
      let* version =
        Client.run db (fun tx ->
            started := Engine.now () :: !started;
            Client.set tx "k" "v";
            Future.catch
              (fun () -> Client.commit tx)
              (fun e ->
                failed := Engine.now () :: !failed;
                Future.fail e))
      in
      Fdb_paxos.Election.stop w.cc.election;
      let sleeps =
        List.map2 (fun start fail -> start -. fail) (List.tl (List.rev !started)) (List.rev !failed)
      in
      let delays = Fdb_util.Histogram.create () in
      List.iter
        (fun (_, h) -> Fdb_util.Histogram.merge_into ~dst:delays h)
        (Registry.histograms w.ctx.Context.metrics ~role:Registry.Client "retry_delay");
      Future.return (version, sleeps, delays))

let failures = 8

let test_backoff_window () =
  let version, sleeps, _ = scripted_retries ~failures in
  Alcotest.(check int64) "the last attempt commits" 7L version;
  Alcotest.(check int) "one sleep per retry" failures (List.length sleeps);
  List.iteri
    (fun i sleep ->
      let b = Float.min (0.01 *. Float.pow 2.0 (float_of_int i)) 1.0 in
      if not (sleep >= b && sleep < 2.0 *. b) then
        Alcotest.failf "sleep before retry %d is %.4f s, outside [%.4f, %.4f)" (i + 1) sleep b
          (2.0 *. b))
    sleeps

let test_retry_delay_histogram () =
  let _, sleeps, delays = scripted_retries ~failures in
  Alcotest.(check int) "one sample per retry" failures (Fdb_util.Histogram.count delays);
  Alcotest.(check (float 1e-9)) "the samples are the sleeps"
    (List.fold_left ( +. ) 0.0 sleeps)
    (Fdb_util.Histogram.total delays)

(* ---------- the held poll on the ClusterController ---------- *)

(* A handle on generation 1's proxy, its poll held at the CC: the instant
   the CC learns that generation 2 recovered, it answers the held poll, and
   the handle's next GRV goes straight to generation 2's proxy. No call
   reaches a retired proxy, so [stale_proxy_calls] stays 0. *)
let test_held_poll_delivers_new_generation () =
  let r =
    Engine.run ~seed:6L ~max_time:1e5 (fun () ->
        let w = client_world () in
        let retired = ref false and old_after_retire = ref 0 and new_at = ref [] in
        let old_proxy =
          grv_proxy w "proxy-old" (fun () ->
              if !retired then begin
                incr old_after_retire;
                Error Error.Wrong_epoch
              end
              else Ok ())
        in
        let new_proxy =
          grv_proxy w "proxy-new" (fun () ->
              new_at := Engine.now () :: !new_at;
              Ok ())
        in
        w.cc.publish [ old_proxy ];
        let* () = until_elected w.cc in
        let db = Client.create_db w.ctx w.client in
        let* _ = Client.get_read_version (Client.begin_tx db) in
        (* Mid-way through the held poll's interval. *)
        let* () = Engine.sleep 0.1 in
        let calls_before = !(w.cc.calls) in
        retired := true;
        w.cc.publish [ new_proxy ];
        let published = Engine.now () in
        let* () = Engine.sleep hops in
        let* v = Client.get_read_version (Client.begin_tx db) in
        Fdb_paxos.Election.stop w.cc.election;
        Future.return
          (v, published, !new_at, !old_after_retire, !(w.cc.calls) - calls_before,
           !(w.cc.max_inflight), stale_proxy_calls w))
  in
  let v, published, new_at, old_after_retire, calls_after, max_inflight, stale = r in
  Alcotest.(check int64) "the GRV is served" 5L v;
  Alcotest.(check int) "no GRV reaches the retired proxy" 0 old_after_retire;
  Alcotest.(check int) "the GRV reaches the new proxy" 1 (List.length new_at);
  List.iter
    (fun t ->
      if not (t -. published < 2.0 *. hops) then
        Alcotest.failf "the GRV reached the new proxy %.4f s after the recovery" (t -. published))
    new_at;
  Alcotest.(check int) "stale_proxy_calls stays 0" 0 stale;
  Alcotest.(check int) "the answer is followed by one new poll" 1 calls_after;
  Alcotest.(check int) "never two polls in flight" 1 max_inflight

(* A GRV already out to generation 1's proxy when generation 2 recovers:
   the old proxy refuses it after the handle has adopted generation 2's
   list, so the GRV retries on the new proxy at once, not at the next
   poll answer. *)
let test_call_out_during_recovery_retries_at_once () =
  let r =
    Engine.run ~seed:9L ~max_time:1e5 (fun () ->
        let w = client_world () in
        let refused_at = ref 0.0 and new_at = ref [] in
        let old_handle (type r) (req : r Message.req) : (r, Error.t) result Future.t =
          match req with
          | Message.Grv_req ->
              (* Slow to refuse: the recovery lands while the GRV is out. *)
              let+ () = Engine.sleep (2.0 *. answer_delay) in
              refused_at := Engine.now ();
              Error Error.Database_locked
          | _ -> fst (Future.make ())
        in
        let old_proxy = w.serve (Process.create ~name:"proxy-old" (Process.fresh_machine 4)) { handle = old_handle } in
        let new_proxy =
          grv_proxy w "proxy-new" (fun () ->
              new_at := Engine.now () :: !new_at;
              Ok ())
        in
        w.cc.publish [ old_proxy ];
        let* () = until_elected w.cc in
        let db = Client.create_db w.ctx w.client in
        let* () = Client.refresh db in
        let* () = Engine.sleep 0.1 in
        Engine.schedule ~after:answer_delay (fun () -> w.cc.publish [ new_proxy ]);
        let* v = Client.get_read_version (Client.begin_tx db) in
        Fdb_paxos.Election.stop w.cc.election;
        Future.return (v, !refused_at, !new_at, stale_proxy_calls w))
  in
  let v, refused_at, new_at, stale = r in
  Alcotest.(check int64) "the GRV is served" 5L v;
  Alcotest.(check int) "one call met the retired proxy" 1 stale;
  match new_at with
  | [ t ] ->
      if not (t -. refused_at < hops) then
        Alcotest.failf "the retry reached the new proxy %.4f s after the refusal" (t -. refused_at)
  | _ -> Alcotest.fail "the GRV did not reach the new proxy exactly once"

(* Many GRVs at once on a handle whose proxy has been retired: each is told
   [Wrong_epoch] and joins the poll already held at the CC, so the burst
   sends the CC no request of its own. Every GRV reaches the new proxy a
   few hops after the CC answers that poll. Then concurrent
   [Client.refresh] calls join the next held poll, send nothing either,
   and all resume at the one instant the CC answers it. *)
let test_grvs_share_one_refresh () =
  let n = 8 in
  let r =
    Engine.run ~seed:4L ~max_time:1e5 (fun () ->
        let w = client_world () in
        let retired = ref false and new_arrivals = ref [] in
        let old_proxy =
          grv_proxy w "proxy-old" (fun () -> if !retired then Error Error.Wrong_epoch else Ok ())
        in
        let new_proxy =
          grv_proxy w "proxy-new" (fun () ->
              new_arrivals := Engine.now () :: !new_arrivals;
              Ok ())
        in
        w.cc.publish [ old_proxy ];
        let* () = until_elected w.cc in
        let db = Client.create_db w.ctx w.client in
        let* _ = Client.get_read_version (Client.begin_tx db) in
        let calls_before = !(w.cc.calls) and calls_at_answer = ref 0 in
        retired := true;
        (* The CC learns of the recovery while the burst waits on the poll. *)
        Engine.schedule ~after:answer_delay (fun () ->
            calls_at_answer := !(w.cc.calls);
            w.cc.publish [ new_proxy ]);
        let* versions =
          Future.all (List.init n (fun _ -> Client.get_read_version (Client.begin_tx db)))
        in
        let burst_answer = List.hd !(w.cc.answered_at) in
        let burst_calls = !calls_at_answer - calls_before in
        let calls_before = !(w.cc.calls) in
        let resumed = ref [] in
        let* () =
          Future.all_unit
            (List.init n (fun _ ->
                 let+ () = Client.refresh db in
                 resumed := Engine.now () :: !resumed))
        in
        Fdb_paxos.Election.stop w.cc.election;
        Future.return
          ( versions,
            burst_calls,
            !(w.cc.max_inflight),
            List.map (fun t -> t -. burst_answer) !new_arrivals,
            !(w.cc.calls) - calls_before,
            !resumed,
            List.hd !(w.cc.answered_at),
            stale_proxy_calls w ))
  in
  let versions, burst_calls, max_inflight, after_answer, refresh_calls, resumed, answered, stale =
    r
  in
  Alcotest.(check (list int64)) "every GRV is served" (List.init n (fun _ -> 5L)) versions;
  Alcotest.(check int) "every GRV met the retired proxy once" n stale;
  Alcotest.(check int) "the burst makes no Cc_get_state of its own" 0 burst_calls;
  Alcotest.(check int) "never two in flight" 1 max_inflight;
  Alcotest.(check int) "every GRV reaches the new proxy" n (List.length after_answer);
  List.iter
    (fun d ->
      if not (d >= 0.0 && d < hops) then
        Alcotest.failf "a GRV reached the new proxy %.4f s after the poll answered" d)
    after_answer;
  Alcotest.(check int) "concurrent refreshes make no Cc_get_state of their own" 0 refresh_calls;
  let first = List.hd resumed in
  Alcotest.(check bool) "every refresh caller resumes at one instant" true
    (List.for_all (fun t -> t = first) resumed && first >= answered)

(* The CC's process dies with the handle's poll held on it: the network
   resets the poll, and the handle asks the coordinators again, every
   0.1 s, until they name the new CC (once the dead one's lease lapses).
   Its first poll of the new CC adopts that CC's generation. *)
let test_cc_death_finds_new_cc () =
  let r =
    Engine.run ~seed:7L ~max_time:1e5 (fun () ->
        let w = client_world () in
        let old_proxy = grv_proxy w "proxy-old" (fun () -> Ok ()) in
        let new_at = ref [] in
        let new_proxy =
          grv_proxy w "proxy-new" (fun () ->
              new_at := Engine.now () :: !new_at;
              Ok ())
        in
        w.cc.publish [ old_proxy ];
        let* () = until_elected w.cc in
        let db = Client.create_db w.ctx w.client in
        let* _ = Client.get_read_version (Client.begin_tx db) in
        let* () = Engine.sleep 0.1 in
        Engine.kill w.cc.proc;
        (* The new CC's generation ends the dead CC's. *)
        let cc2 = start_cc w.ctx ~machine:1 ~epoch:1 in
        cc2.publish [ new_proxy ];
        (* The dead CC's lease lapses, the new CC claims it, and the handle
           has time for a few polls of it. *)
        let* () = Engine.sleep (2.0 *. Params.lease_duration) in
        let* v = Client.get_read_version (Client.begin_tx db) in
        Fdb_paxos.Election.stop cc2.election;
        Future.return (v, !new_at, !(cc2.calls), List.rev !(cc2.answered_at), !(cc2.elected_at)))
  in
  let v, new_at, cc2_calls, cc2_answers, elected_at = r in
  Alcotest.(check int64) "the GRV is served" 5L v;
  Alcotest.(check int) "the GRV reaches the new CC's proxy" 1 (List.length new_at);
  if cc2_calls < 2 then Alcotest.failf "the new CC got %d polls, not a held one" cc2_calls;
  match (cc2_answers, elected_at) with
  | first :: _, Some elected ->
      (* One 0.1 s pause and a coordinator read, then [answer_delay]. *)
      if first -. elected > 0.1 +. hops +. answer_delay then
        Alcotest.failf "the handle's first answer from the new CC came %.3f s after its election"
          (first -. elected)
  | _ -> Alcotest.fail "the new CC was not elected, or answered no poll"

(* A handle whose process dies mid-poll: its loop dies with it, the CC's
   held poll is answered by its timer, and no labeled promise is left
   pending, even with a caller joined to the poll when the process died. *)
let test_handle_death_leaks_nothing () =
  let r =
    Engine.run ~seed:8L ~max_time:1e5 (fun () ->
        let w = client_world () in
        w.cc.publish [ grv_proxy w "proxy" (fun () -> Ok ()) ];
        let* () = until_elected w.cc in
        let db = Client.create_db w.ctx w.client in
        let* () = Engine.sleep 0.1 in
        Engine.spawn ~process:w.client "joined-refresh" (fun () -> Client.refresh db);
        let* () = Engine.sleep 0.05 in
        Engine.kill w.client;
        let calls_at_death = !(w.cc.calls) in
        let* () = Engine.sleep 2.0 in
        Fdb_paxos.Election.stop w.cc.election;
        Future.return (!(w.cc.calls) - calls_at_death))
  in
  Alcotest.(check int) "no poll after the death" 0 r;
  Alcotest.(check int) "no leaked promises" 0
    (Future.Lifecycle.total_leaks (Engine.last_run_lifecycle ()))

(* ---------- single-flight coordinator read at a storage server ---------- *)

(* Concurrent reads minted by a newer generation at one storage server: the
   generation gate consults the coordinators once for all of them, and
   every read is answered a few hops after that consultation returns. *)
let test_newer_epoch_reads_share_one_read () =
  let n = 6 in
  let r =
    Engine.run ~seed:5L ~max_time:1e5 (fun () ->
        let base = Test_log_server.mini_ctx () in
        let net = base.Context.net in
        let coord_ep = Network.fresh_endpoint net and ss_ep = Network.fresh_endpoint net in
        let ctx = { base with Context.coordinator_eps = [ coord_ep ]; storage_eps = [| ss_ep |] } in
        let config = ctx.Context.config in
        (* Logs that never answer a peek: the pull loop waits on them. *)
        let silent = Process.create ~name:"logs" (Process.fresh_machine 3) in
        let logs =
          List.init config.Config.log_servers (fun i ->
              let ep = Network.fresh_endpoint net in
              Context.serve ctx ep silent { handle = (fun _ -> fst (Future.make ())) };
              (i, ep))
        in
        let state epoch =
          Message.encode_coordinated_state
            {
              Message.cs_epoch = epoch;
              cs_logs = logs;
              cs_log_replication = config.Config.log_replication;
              cs_recovery_version = 0L;
              cs_rv_history = [ (epoch, 0L) ];
            }
        in
        let published = ref (state 1) in
        let reads = ref 0 and inflight = ref 0 and max_inflight = ref 0 and answered = ref 0.0 in
        let coordinator (type r) (req : r Message.req) : (r, Error.t) result Future.t =
          match req with
          | Message.Paxos_req (Fdb_paxos.Wire.Read { reg = "ts-state" }) ->
              incr reads;
              incr inflight;
              max_inflight := max !max_inflight !inflight;
              let value = !published in
              let+ () = Engine.sleep answer_delay in
              decr inflight;
              answered := Engine.now ();
              Ok
                (Fdb_paxos.Wire.Read_result
                   { accepted = Some ({ Fdb_paxos.Wire.round = 1; proposer = 0 }, value) })
          | _ -> fst (Future.make ())
        in
        Context.serve ctx coord_ep
          (Process.create ~name:"coordinator" (Process.fresh_machine 1))
          { handle = coordinator };
        let ss_proc = Process.create ~name:"ss" (Process.fresh_machine 0) in
        let* _ss = Storage_server.create ctx ss_proc ~id:0 ~disk:(Disk.create ()) in
        let reader = Process.create ~name:"reader" (Process.fresh_machine 2) in
        (* The server adopts generation 1 and parks a peek on its logs. *)
        let* () = Engine.sleep 0.3 in
        let reads_before = !reads in
        published := state 2;
        let* replies =
          Future.all
            (List.init n (fun i ->
                 Future.catch
                   (fun () ->
                     let+ _ =
                       Context.rpc ctx ~timeout:5.0 ~from:reader ss_ep
                         (Message.Storage_get
                            {
                              key = Printf.sprintf "k%d" i;
                              version = 0L;
                              rv_epoch = 2;
                              may_bounce = false;
                            })
                     in
                     (Engine.now (), "ok"))
                   (function
                     | Error.Fdb e -> Future.return (Engine.now (), Error.to_string e)
                     | e -> Future.fail e)))
        in
        Future.return (!reads - reads_before, !max_inflight, !answered, replies))
  in
  let burst_reads, max_inflight, answered, replies = r in
  Alcotest.(check int) "the burst makes one coordinator read" 1 burst_reads;
  Alcotest.(check int) "never two in flight" 1 max_inflight;
  List.iter
    (fun (at, outcome) ->
      if outcome = Error.to_string Error.Future_version then
        Alcotest.fail "a read was refused by the generation gate";
      let d = at -. answered in
      if not (d >= 0.0 && d < hops) then
        Alcotest.failf "a read was answered %.4f s after the coordinator read returned" d)
    replies

let suite =
  [
    Alcotest.test_case "backoff sleeps lie in [b, 2b)" `Quick test_backoff_window;
    Alcotest.test_case "retry_delay records every sleep" `Quick test_retry_delay_histogram;
    Alcotest.test_case "held poll delivers a new generation" `Quick
      test_held_poll_delivers_new_generation;
    Alcotest.test_case "call out during a recovery retries at once" `Quick
      test_call_out_during_recovery_retries_at_once;
    Alcotest.test_case "GRVs share one proxy refresh" `Quick test_grvs_share_one_refresh;
    Alcotest.test_case "CC death finds the new CC" `Quick test_cc_death_finds_new_cc;
    Alcotest.test_case "handle death leaks nothing" `Quick test_handle_death_leaks_nothing;
    Alcotest.test_case "newer-epoch reads share one coordinator read" `Quick
      test_newer_epoch_reads_share_one_read;
  ]
