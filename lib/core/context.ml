open Fdb_sim

type t = {
  net : Message.envelope Network.t;
  config : Config.t;
  shard_map : Shard_map.t;
  coordinator_eps : int list;
  worker_eps : int array;
  storage_eps : int array;
  metrics : Fdb_obs.Registry.t; (* the cluster-wide metrics plane *)
  mutable dd_movement : bool; (* the DataDistributor's movement switch *)
}

let rpc t ?timeout ?bytes ~from ep req =
  Future.bind
    (Network.call t.net ?timeout ?bytes ~from ep (fun reply -> Message.Call (req, reply)))
    (function Ok v -> Future.return v | Error e -> Future.fail (Error.Fdb e))

let send t ?bytes ~from ep req = Network.send t.net ?bytes ~from ep (Message.Cast req)

type handler = { handle : 'r. 'r Message.req -> ('r, Error.t) result Future.t }

let serve t ep proc { handle } =
  Network.register t.net ep proc (function
    | Message.Call (req, reply) -> Network.Reply (handle req, reply)
    | Message.Cast req -> Network.Done (handle req))

let ping t ~from ep =
  Future.catch
    (fun () ->
      Future.map
        (Network.call t.net ~timeout:Params.heartbeat_timeout ~from ep (fun reply ->
             Message.Call (Message.Ping, reply)))
        Result.is_ok)
    (fun _ -> Future.return false)

(* A long-poll is held up to [heartbeat_interval]; a silent callee (its
   machine is down) is given [heartbeat_timeout] beyond that. *)
let wait_failure t ~from ep req =
  rpc t ~timeout:(Params.heartbeat_interval +. Params.heartbeat_timeout) ~from ep req

let paxos_transport t ~from =
  {
    Fdb_paxos.Wire.endpoints = t.coordinator_eps;
    call = (fun ep req -> rpc t ~timeout:1.0 ~from ep (Message.Paxos_req req));
  }

let proposer_id (p : Process.t) = p.Process.pid
