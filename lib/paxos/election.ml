open Fdb_sim
open Future.Syntax

type claim = { who : string; expiry : float }

let encode (c : claim) = Marshal.to_string c []
let decode s = match (Marshal.from_string s 0 : claim) with c -> Some c | exception _ -> None

type t = {
  reg : Register.t;
  self : string;
  lease : float;
  on_elected : unit -> unit;
  on_deposed : unit -> unit;
  mutable observed : claim option;
  mutable am_leader : bool;
  mutable stopped : bool;
}

let jitter () = Engine.random_float 0.2

let depose t =
  if t.am_leader then begin
    t.am_leader <- false;
    t.on_deposed ()
  end

let rec campaign t =
  if t.stopped then Future.return ()
  else
    let* () =
      Future.catch
        (fun () ->
          (* Followers poll with a ballot-free read so they never disturb
             the holder's renewals; only an expired lease escalates to the
             locking path (ballot contention at WAN latencies otherwise
             livelocks the election). *)
          let* peek = if t.am_leader then Future.return None else Register.read_any t.reg in
          match Option.bind peek decode with
          | Some c when (not t.am_leader) && c.who <> t.self && c.expiry > Engine.now () ->
              t.observed <- Some c;
              Engine.sleep (c.expiry -. Engine.now () +. (t.lease /. 2.0) +. jitter ())
          | _ ->
              let* v = Register.lock_and_read t.reg in
              let current = Option.bind v decode in
              t.observed <- current;
              (match current with
              | Some c when c.who <> t.self && c.expiry > Engine.now () ->
                  (* Someone else holds a live lease: wait it out. *)
                  depose t;
                  Engine.sleep (c.expiry -. Engine.now () +. (t.lease /. 2.0) +. jitter ())
              | _ ->
                  (* Free, expired, or ours: (re)claim. *)
                  let claim = { who = t.self; expiry = Engine.now () +. t.lease } in
                  let* () = Register.write t.reg (encode claim) in
                  t.observed <- Some claim;
                  if not t.am_leader then begin
                    t.am_leader <- true;
                    t.on_elected ()
                  end;
                  Engine.sleep (t.lease /. 3.0 +. jitter ())))
        (fun _ ->
          (* Lock lost or coordinators unreachable: if our lease has lapsed,
             stop believing we lead, then retry. *)
          (match t.observed with
          | Some c when c.who = t.self && c.expiry <= Engine.now () -> depose t
          | Some c when c.who <> t.self -> depose t
          | _ -> ());
          Engine.sleep (0.2 +. jitter ()))
    in
    campaign t

let start reg ~self ?(lease = 4.0) ~on_elected ~on_deposed () =
  let t =
    {
      reg;
      self;
      lease;
      on_elected;
      on_deposed;
      observed = None;
      am_leader = false;
      stopped = false;
    }
  in
  Engine.spawn ("election:" ^ self) (fun () -> campaign t);
  t

let stop t =
  t.stopped <- true;
  depose t

let is_leader t = t.am_leader

let leader_via transport ~reg ~proposer =
  let client = Register.create transport ~reg ~proposer in
  let* v = Register.read_any client in
  match Option.bind v decode with
  | Some c when c.expiry > Engine.now () -> Future.return (Some c.who)
  | _ -> Future.return None
