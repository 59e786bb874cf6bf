open Fdb_sim
open Future.Syntax

let serve ctx proc ~disk ~endpoint =
  let* server = Fdb_paxos.Server.recover ~disk ~file:"paxos-state" () in
  let handle : type r. r Message.req -> (r, Error.t) result Future.t = function
    | Message.Paxos_req r -> Future.map (Fdb_paxos.Server.handle server r) Result.ok
    | _ -> Future.return (Error (Error.Internal "coordinator: unexpected message"))
  in
  Context.serve ctx endpoint proc { handle };
  Future.return ()

let start ctx proc ~disk ~endpoint =
  Disk.attach disk proc;
  let boot () =
    Engine.spawn ~process:proc "coordinator" (fun () -> serve ctx proc ~disk ~endpoint)
  in
  proc.Process.boot <- boot;
  Engine.schedule ~process:proc boot
