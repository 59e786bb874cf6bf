open Fdb_sim

type host = { h_machine : Process.machine; h_disks : Disk.t array }

type t = {
  ctx : Context.t;
  host : host;
  machine_id : int;
  ep : int;
  proc : Process.t;
  mutable cc : Cluster_controller.t option;
}

let role_process t name = Process.create ~name t.host.h_machine

(* Each LogServer gets the machine's dedicated log disk (disk 0), like the
   paper's one-SSD-per-LogServer binding. *)
let log_disk t = t.host.h_disks.(0)

let handle (type r) t (req : r Message.req) : (r, Error.t) result Future.t =
  let hosted proc create =
    let _, ep = create proc in
    Future.return (Ok ep)
  in
  match req with
  (* Buggify: refuse a recruitment now and then so recovery's walk-on
     placement path gets exercised. *)
  | (Message.Recruit_log _ | Message.Recruit_proxy _ | Message.Recruit_resolver _)
    when Buggify.on ~p:0.1 "worker_refuse_recruit" ->
      Future.return (Error (Error.Internal "buggify: recruit refused"))
  | Message.Recruit_log { rl_epoch; rl_id; rl_start_lsn } ->
      hosted (role_process t (Printf.sprintf "tlog-%d.%d" rl_epoch rl_id)) (fun proc ->
          Log_server.create t.ctx proc ~disk:(log_disk t) ~epoch:rl_epoch ~id:rl_id
            ~start_lsn:rl_start_lsn)
  | Message.Recruit_resolver { rr_epoch; rr_range; rr_start_lsn } ->
      hosted (role_process t (Printf.sprintf "resolver-%d" rr_epoch)) (fun proc ->
          Resolver.create t.ctx proc ~epoch:rr_epoch ~range:rr_range ~start_lsn:rr_start_lsn)
  | Message.Recruit_proxy
      { rp_epoch; rp_sequencer; rp_resolvers; rp_logs; rp_ratekeeper; rp_recovery_version }
    ->
      hosted (role_process t (Printf.sprintf "proxy-%d" rp_epoch)) (fun proc ->
          Proxy.create t.ctx proc ~epoch:rp_epoch ~sequencer:rp_sequencer
            ~resolvers:rp_resolvers ~logs:rp_logs ~ratekeeper:rp_ratekeeper
            ~recovery_version:rp_recovery_version)
  | Message.Recruit_sequencer { rs_ratekeeper; rs_cc } ->
      hosted (role_process t "sequencer") (fun proc ->
          Sequencer.create t.ctx proc ~ratekeeper:rs_ratekeeper ~cc:rs_cc)
  | Message.Recruit_ratekeeper -> hosted (role_process t "ratekeeper") (Ratekeeper.create t.ctx)
  | Message.Recruit_data_distributor ->
      hosted (role_process t "data-distributor") (Data_distributor.create t.ctx)
  | Message.Cc_get_state { cg_known } -> (
      match t.cc with
      | Some cc -> Cluster_controller.get_state cc ~known:cg_known
      | None -> Future.return (Error (Error.Internal "not the cluster controller")))
  | Message.Cc_recovered { cr_sequencer; cr_epoch; cr_proxies; cr_logs } ->
      (match t.cc with
      | Some cc ->
          Cluster_controller.note_recovered cc ~sequencer:cr_sequencer ~epoch:cr_epoch
            ~proxies:cr_proxies ~logs:cr_logs
      | None -> ());
      Future.return (Ok ())
  | _ -> Future.return (Error (Error.Internal "worker: unexpected message"))

let start_election t proc =
  if t.machine_id < t.ctx.Context.config.Config.cc_candidates then begin
    let reg =
      Fdb_paxos.Register.create
        (Context.paxos_transport t.ctx ~from:proc)
        ~reg:"cc-leader" ~proposer:(Context.proposer_id proc)
    in
    (* The election handle is owned by its callbacks; the worker never
       stops campaigning explicitly. *)
    ignore
      (Fdb_paxos.Election.start reg
         ~self:(string_of_int t.machine_id)
         ~lease:Params.lease_duration
         ~on_elected:(fun () -> t.cc <- Some (Cluster_controller.start t.ctx proc))
         ~on_deposed:(fun () ->
           match t.cc with
           | Some cc ->
               Cluster_controller.stop cc;
               t.cc <- None
           | None -> ())
         ()
       : Fdb_paxos.Election.t)
  end

let boot t () =
  let proc = t.proc in
  Context.serve t.ctx t.ep proc { handle = (fun req -> handle t req) };
  t.cc <- None;
  start_election t proc

let create ctx host ~machine_id =
  let proc = Process.create ~name:(Printf.sprintf "worker-%d" machine_id) host.h_machine in
  let t =
    { ctx; host; machine_id; ep = ctx.Context.worker_eps.(machine_id); proc; cc = None }
  in
  proc.Process.boot <- (fun () -> boot t ());
  Engine.schedule ~process:proc (fun () -> boot t ())
