open Fdb_sim

type t = {
  net : Message.t Network.t;
  config : Config.t;
  shard_map : Shard_map.t;
  coordinator_eps : int list;
  worker_eps : int array;
  storage_eps : int array;
  metrics : Fdb_obs.Registry.t; (* the cluster-wide metrics plane *)
  mutable dd_movement : bool; (* the DataDistributor's movement switch *)
}

let rpc t ?timeout ?bytes ~from ep msg =
  Future.bind (Network.call t.net ?timeout ?bytes ~from ep msg) (function
    | Message.Reject e -> Future.fail (Error.Fdb e)
    | reply -> Future.return reply)

let ping t ~from ep =
  Future.catch
    (fun () ->
      Future.map
        (Network.call t.net ~timeout:Params.heartbeat_timeout ~from ep Message.Seq_ping)
        (function Message.Ok_reply -> true | _ -> false))
    (fun _ -> Future.return false)

let paxos_transport t ~from =
  {
    Fdb_paxos.Wire.endpoints = t.coordinator_eps;
    call =
      (fun ep req ->
        Future.bind
          (Network.call t.net ~timeout:1.0 ~from ep (Message.Paxos_req req))
          (function
            | Message.Paxos_resp r -> Future.return r
            | _ -> Future.fail (Error.Fdb (Error.Internal "bad paxos reply"))));
  }

let proposer_id (p : Process.t) = p.Process.pid
