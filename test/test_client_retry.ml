(* The client's retry path against scripted roles: how long [Client.run]
   sleeps before each retry, and how concurrent callers share one proxy
   refresh (client) or one coordinator read (storage server) instead of
   sleeping while it runs. *)

open Fdb_sim
open Fdb_core
open Future.Syntax
module Registry = Fdb_obs.Registry

(* The delay the scripted ClusterController and coordinator take to answer:
   long enough that every concurrent caller arrives while it is pending. *)
let answer_delay = 0.02

(* A caller resumed by the shared refresh is answered within a few network
   hops of it; one that slept a fixed 0.1 s instead is not. *)
let hops = 0.005

type world = {
  ctx : Context.t;
  client : Process.t;
  serve : Process.t -> Context.handler -> int;
  cc_calls : int ref;  (* Cc_get_state requests received *)
  cc_max_inflight : int ref;
  cc_answered_at : float list ref;  (* newest first *)
  election : Fdb_paxos.Election.t;  (* the scripted CC's; stop it to end the run *)
}

(* A client's world with scripted roles: a real coordinator whose
   "cc-leader" register names machine 0, won by a real election, and a
   scripted ClusterController on machine 0's worker endpoint that answers
   [Cc_get_state] with [!proxies] after [answer_delay]. *)
let client_world ~proxies =
  let net = Network.create () in
  let coord_ep = Network.fresh_endpoint net and cc_ep = Network.fresh_endpoint net in
  let ctx =
    {
      (Test_log_server.mini_ctx ()) with
      Context.net;
      coordinator_eps = [ coord_ep ];
      worker_eps = [| cc_ep |];
    }
  in
  let coord = Process.create ~name:"coordinator" (Process.fresh_machine 1) in
  Coordinator.start ctx coord ~disk:(Disk.create ()) ~endpoint:coord_ep;
  let cc = Process.create ~name:"cc" (Process.fresh_machine 0) in
  let serve proc handler =
    let ep = Network.fresh_endpoint net in
    Context.serve ctx ep proc handler;
    ep
  in
  let calls = ref 0 and inflight = ref 0 and max_inflight = ref 0 and answered = ref [] in
  let cc_role (type r) (req : r Message.req) : (r, Error.t) result Future.t =
    match req with
    | Message.Cc_get_state ->
        incr calls;
        incr inflight;
        max_inflight := max !max_inflight !inflight;
        let+ () = Engine.sleep answer_delay in
        decr inflight;
        answered := Engine.now () :: !answered;
        Ok
          {
            Message.st_epoch = 1;
            st_proxies = !proxies;
            st_logs = [];
            st_recovered = true;
            st_dd = None;
          }
    | _ -> fst (Future.make ())
  in
  Context.serve ctx cc_ep cc { handle = cc_role };
  let election =
    Fdb_paxos.Election.start
      (Fdb_paxos.Register.create
         (Context.paxos_transport ctx ~from:cc)
         ~reg:"cc-leader" ~proposer:(Context.proposer_id cc))
      ~self:"0" ~on_elected:ignore ~on_deposed:ignore ()
  in
  let client = Process.create ~name:"client" (Process.fresh_machine 2) in
  {
    ctx;
    client;
    serve;
    cc_calls = calls;
    cc_max_inflight = max_inflight;
    cc_answered_at = answered;
    election;
  }

(* ---------- the backoff rule ---------- *)

(* A transaction against a proxy that answers [Not_committed] [failures]
   times, then commits. Returns the sleep before each retry, measured from
   the instant an attempt's commit fails to the instant the next attempt
   starts, and the client's [retry_delay] histogram. *)
let scripted_retries ~failures =
  Engine.run ~seed:3L ~max_time:1e5 (fun () ->
      let proxies = ref [] in
      let w = client_world ~proxies in
      let commits = ref 0 in
      let proxy (type r) (req : r Message.req) : (r, Error.t) result Future.t =
        match req with
        | Message.Commit_req _ ->
            incr commits;
            Future.return (if !commits <= failures then Error Error.Not_committed else Ok 7L)
        | _ -> fst (Future.make ())
      in
      proxies := [ w.serve (Process.create ~name:"proxy" (Process.fresh_machine 3)) { handle = proxy } ];
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
      Fdb_paxos.Election.stop w.election;
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

(* ---------- single-flight proxy refresh ---------- *)

(* Many GRVs at once on a handle whose proxy has been retired: each is told
   [Wrong_epoch] and refreshes, and the refreshes are one [Cc_get_state].
   Every GRV reaches the new proxy a few hops after that answer. Then
   concurrent [Client.refresh] calls all resume at one virtual instant. *)
let test_grvs_share_one_refresh () =
  let n = 8 in
  let r =
    Engine.run ~seed:4L ~max_time:1e5 (fun () ->
        let proxies = ref [] in
        let w = client_world ~proxies in
        let retired = ref false and new_arrivals = ref [] in
        let grv_proxy ~old (type r) (req : r Message.req) : (r, Error.t) result Future.t =
          match req with
          | Message.Grv_req when old && !retired -> Future.return (Error Error.Wrong_epoch)
          | Message.Grv_req ->
              if not old then new_arrivals := Engine.now () :: !new_arrivals;
              Future.return (Ok { Message.gv_version = 5L; gv_epoch = 1 })
          | _ -> fst (Future.make ())
        in
        let proxy ~old name =
          let handle req = grv_proxy ~old req in
          w.serve (Process.create ~name (Process.fresh_machine 3)) { handle }
        in
        let old_proxy = proxy ~old:true "proxy-old" and new_proxy = proxy ~old:false "proxy-new" in
        proxies := [ old_proxy ];
        let* () = Engine.sleep 1.0 in
        let db = Client.create_db w.ctx w.client in
        let* _ = Client.get_read_version (Client.begin_tx db) in
        let calls_before = !(w.cc_calls) in
        retired := true;
        proxies := [ new_proxy ];
        let* versions =
          Future.all (List.init n (fun _ -> Client.get_read_version (Client.begin_tx db)))
        in
        let burst_calls = !(w.cc_calls) - calls_before in
        let burst_answer = List.hd !(w.cc_answered_at) in
        let resumed = ref [] in
        let* () =
          Future.all_unit
            (List.init n (fun _ ->
                 let+ () = Client.refresh db in
                 resumed := Engine.now () :: !resumed))
        in
        Fdb_paxos.Election.stop w.election;
        Future.return
          ( versions,
            burst_calls,
            !(w.cc_max_inflight),
            List.map (fun t -> t -. burst_answer) !new_arrivals,
            !(w.cc_calls) - calls_before - burst_calls,
            !resumed,
            List.hd !(w.cc_answered_at) ))
  in
  let versions, burst_calls, max_inflight, after_answer, refresh_calls, resumed, answered = r in
  Alcotest.(check (list int64)) "every GRV is served" (List.init n (fun _ -> 5L)) versions;
  Alcotest.(check int) "the burst makes one Cc_get_state" 1 burst_calls;
  Alcotest.(check int) "never two in flight" 1 max_inflight;
  Alcotest.(check int) "every GRV reaches the new proxy" n (List.length after_answer);
  List.iter
    (fun d ->
      if not (d >= 0.0 && d < hops) then
        Alcotest.failf "a GRV reached the new proxy %.4f s after the refresh answered" d)
    after_answer;
  Alcotest.(check int) "concurrent refreshes make one Cc_get_state" 1 refresh_calls;
  let first = List.hd resumed in
  Alcotest.(check bool) "every refresh caller resumes at one instant" true
    (List.for_all (fun t -> t = first) resumed && first >= answered)

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
    Alcotest.test_case "GRVs share one proxy refresh" `Quick test_grvs_share_one_refresh;
    Alcotest.test_case "newer-epoch reads share one coordinator read" `Quick
      test_newer_epoch_reads_share_one_read;
  ]
