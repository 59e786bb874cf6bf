open Fdb_sim

(* The held side of a generation's long-poll ([Message.Wait_failure], and
   the sequencer's [Message.Seq_status]), FDB's waitFailure endpoint. A
   poll is held and answered after [Params.heartbeat_interval] while the
   role lives, or with [Wrong_epoch] the moment the role ends ([fail]). A
   process death needs nothing here: the network resets every call open
   to a dead process one network delay later. Like a parked peek, each
   held poll is a waiter plus one scheduled answer, so none outlives the
   interval whatever the role does. *)
type 'r t = {
  proc : Process.t;
  mutable held : ('r, Error.t) result Future.promise list;
}

let create proc = { proc; held = [] }

(* Hold a poll; [answer] builds its reply when the interval ends. The reply
   promise is deliberately unlabeled: the timer guarantees its
   resolution. *)
let hold t answer =
  let fut, promise = Future.make () in
  t.held <- promise :: t.held;
  Engine.schedule ~after:Params.heartbeat_interval ~process:t.proc (fun () ->
      if Future.is_pending fut then begin
        t.held <- List.filter (fun p -> p != promise) t.held;
        Future.fulfill promise (Ok (answer ()))
      end);
  fut

(* The role has ended: answer every held poll now. *)
let fail t =
  let held = t.held in
  t.held <- [];
  List.iter (fun p -> ignore (Future.try_fulfill p (Error Error.Wrong_epoch) : bool)) held
