open Fdb_sim
open Future.Syntax

type t = {
  ctx : Context.t;
  hosts : Worker.host array;
  workers : Worker.t array;
  rollup : Fdb_obs.Rollup.t;
  mutable client_count : int;
}

let context t = t.ctx
let metrics t = t.ctx.Context.metrics

(* A fresh per-role aggregate of the metrics plane (the rollup actor also
   refreshes one every second; this computes it on demand). *)
let status_doc t = Fdb_obs.Rollup.snapshot ~now:(Engine.now ()) t.ctx.Context.metrics
let latest_status_doc t = Fdb_obs.Rollup.latest t.rollup
let worker_machines t = Array.map (fun h -> h.Worker.h_machine) t.hosts

let coordinator_machines t =
  Array.sub (worker_machines t) 0 t.ctx.Context.config.Config.coordinators

let log_bytes t =
  Array.fold_left
    (fun acc h -> Array.fold_left (fun a d -> a +. Disk.bytes_written d) acc h.Worker.h_disks)
    0.0 t.hosts

let create ?(config = Config.default) () =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cluster.create: " ^ msg));
  let net : Message.t Network.t = Network.create () in
  let hosts =
    Array.init config.Config.machines (fun i ->
        let machine =
          Process.fresh_machine
            ~dc:(Config.region_of_machine config i)
            ~rack:(Printf.sprintf "rack%d" (i mod config.Config.racks))
            i
        in
        let disks =
          Array.init config.Config.disks_per_machine (fun d ->
              Disk.create ~name:(Printf.sprintf "m%d-disk%d" i d) ())
        in
        { Worker.h_machine = machine; h_disks = disks })
  in
  (* Cross-region links get WAN latency (paper §5.1 measures ~60 ms). *)
  for a = 1 to config.Config.regions do
    for b = a + 1 to config.Config.regions do
      Network.set_dc_latency net
        (Printf.sprintf "dc%d" a) (Printf.sprintf "dc%d" b) 0.03
    done
  done;
  let coordinator_eps =
    List.init config.Config.coordinators (fun _ -> Network.fresh_endpoint net)
  in
  let worker_eps = Array.init config.Config.machines (fun _ -> Network.fresh_endpoint net) in
  let n_ss = Config.storage_count config in
  let storage_eps = Array.init n_ss (fun _ -> Network.fresh_endpoint net) in
  let ctx =
    {
      Context.net;
      config;
      shard_map = Shard_map.build config;
      coordinator_eps;
      worker_eps;
      storage_eps;
      metrics = Fdb_obs.Registry.create ();
      dd_movement = false;
    }
  in
  (* Coordinators: processes on the first machines, own disk slice. *)
  List.iteri
    (fun i ep ->
      let host = hosts.(i) in
      let proc = Process.create ~name:(Printf.sprintf "coordinator-%d" i) host.Worker.h_machine in
      let disk = host.Worker.h_disks.(Array.length host.Worker.h_disks - 1) in
      Coordinator.start ctx proc ~disk ~endpoint:ep)
    coordinator_eps;
  (* Storage servers: one process per server, spread over the data disks. *)
  for ss = 0 to n_ss - 1 do
    let machine_idx = ss / config.Config.storage_per_machine in
    let host = hosts.(machine_idx) in
    let disk_count = Array.length host.Worker.h_disks in
    let disk =
      host.Worker.h_disks.(1 + (ss mod (max 1 (disk_count - 2))))
    in
    let proc =
      Process.create ~name:(Printf.sprintf "storage-%d" ss) host.Worker.h_machine
    in
    Engine.schedule ~process:proc (fun () ->
        Engine.spawn ~process:proc "ss-start" (fun () ->
            let* _t = Storage_server.create ctx proc ~id:ss ~disk in
            Future.return ()))
  done;
  (* Worker agents (recruitment + CC election). *)
  let workers =
    Array.init config.Config.machines (fun i -> Worker.create ctx hosts.(i) ~machine_id:i)
  in
  let rollup = Fdb_obs.Rollup.start ctx.Context.metrics in
  { ctx; hosts; workers; rollup; client_count = 0 }

let next_client_machine_id = 100_000

let client t ~name =
  t.client_count <- t.client_count + 1;
  let machine =
    Process.fresh_machine ~dc:"dc1" ~rack:"client-rack"
      (next_client_machine_id + t.client_count)
  in
  let proc = Process.create ~name machine in
  Client.create_db t.ctx proc

let wait_ready ?(timeout = 60.0) t =
  let probe = client t ~name:"ready-probe" in
  let deadline = Engine.now () +. timeout in
  let rec loop () =
    if Engine.now () > deadline then
      Future.fail (Error.Fdb (Error.Internal "cluster: not ready before timeout"))
    else begin
      let* () = Client.refresh probe in
      let* ok =
        Future.catch
          (fun () ->
            let* v =
              Client.run probe ~max_attempts:1 (fun tx ->
                  Client.get_read_version tx)
            in
            Future.return (v >= 0L))
          (fun _ -> Future.return false)
      in
      if ok then Future.return ()
      else
        let* () = Engine.sleep 0.25 in
        loop ()
    end
  in
  loop ()

let current_epoch t =
  let (_probe : Client.db) = client t ~name:"epoch-probe" in
  let transport = Context.paxos_transport t.ctx ~from:(
    let machine = Process.fresh_machine ~dc:"dc1" 999_999 in
    Process.create ~name:"epoch-query" machine)
  in
  let reg =
    Fdb_paxos.Register.create transport ~reg:"ts-state" ~proposer:999_999
  in
  let* v = Fdb_paxos.Register.read_any reg in
  match Option.bind v Message.decode_coordinated_state with
  | Some cs -> Future.return cs.Message.cs_epoch
  | None -> Future.return 0
