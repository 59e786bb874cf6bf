open Fdb_sim

(* The held side of a long-poll, FDB's waitFailure endpoint: a generation's
   [Message.Wait_failure] and the sequencer's [Message.Seq_status], and a
   client's [Message.Cc_get_state]. A poll is held and answered after
   [Params.heartbeat_interval] while the role lives, at once when what it
   waits for happens ([answer_all]), or with [Wrong_epoch] the moment the
   role ends ([fail]). A process death needs nothing here: the network
   resets every call open to a dead process one network delay later. Like
   a parked peek, each held poll is a waiter plus one scheduled answer, so
   none outlives the interval whatever the role does. *)
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

let answer_held t reply =
  let held = t.held in
  t.held <- [];
  List.iter (fun p -> ignore (Future.try_fulfill p reply : bool)) held

(* What the polls wait for has happened: answer every held poll now. *)
let answer_all t reply = answer_held t (Ok reply)

(* The role has ended: answer every held poll now. *)
let fail t = answer_held t (Error Error.Wrong_epoch)
