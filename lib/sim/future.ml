type 'a state =
  | Pending of (('a, exn) result -> unit) list (* callbacks, reversed *)
  | Resolved of ('a, exn) result

(* [lbl] is the creation-site label ("" when unlabeled). Labeled promises
   are the unit of the lifecycle sanitizer below: they are registered at
   creation and audited at simulation end. *)
type 'a t = { mutable state : 'a state; lbl : string }
type 'a promise = 'a t

exception Cancelled of string

let is_resolved t = match t.state with Resolved _ -> true | Pending _ -> false
let is_pending t = not (is_resolved t)
let has_waiters t = match t.state with Pending (_ :: _) -> true | _ -> false

(* ---- promise-lifecycle sanitizer ----
   The static rule R6 keeps futures from being silently dropped; this is
   the runtime residue-catcher. While a run is going, every [make] is
   counted, every labeled promise is registered with its creating process,
   and the engine asks for a report at simulation end: labeled promises
   still pending with waiters on a live process are leaked wakeups — an
   actor is blocked on a signal that can no longer arrive. Double
   [try_fulfill]s and detached-future failures are tallied the same way.
   The tallies are fields of the run's record ({!Run.t}). Pure
   bookkeeping: no trace events, no scheduling, so it never perturbs a
   run's trace checksum. *)
module Lifecycle = struct
  type report = Run.report = {
    lr_created : int;  (* promises created via [make] *)
    lr_resolved : int;  (* promises resolved (either way) *)
    lr_leaked : (string * int) list;  (* label -> still pending, with waiters, owner live *)
    lr_double_resolved : (string * int) list;  (* label -> try_* on an already-resolved future *)
    lr_detach_failures : (string * int) list;  (* detach name -> failures routed to Trace *)
  }

  let empty = Run.empty_report
  let total_leaks r = List.fold_left (fun acc (_, n) -> acc + n) 0 r.lr_leaked

  (* Only a pending labeled promise can be reported, so resolved entries
     are dropped whenever the list has doubled since the last prune:
     amortised O(1) per promise, and a resolved promise (with its value)
     is not kept alive until the run ends. *)
  let track (run : Run.t) tr =
    run.tracked <- tr :: run.tracked;
    run.n_tracked <- run.n_tracked + 1;
    if run.n_tracked >= run.prune_at then begin
      run.tracked <- List.filter (fun tr -> tr.Run.tr_pending ()) run.tracked;
      run.n_tracked <- List.length run.tracked;
      run.prune_at <- max 1024 (2 * run.n_tracked)
    end

  let bump table name =
    match List.assoc_opt name table with
    | Some r ->
        incr r;
        table
    | None -> (name, ref 1) :: table

  let owner_live = function
    | None -> true
    | Some (p, inc) -> Process.is_live p inc

  let render table = List.sort compare (List.map (fun (k, r) -> (k, !r)) table)

  let snapshot () =
    let run = !Run.latest in
    let leaks =
      List.fold_left
        (fun leaks (tr : Run.tracked) ->
          if tr.tr_pending () && tr.tr_waited () && owner_live tr.tr_owner then
            bump leaks tr.tr_label
          else leaks)
        [] run.tracked
    in
    {
      lr_created = run.n_created;
      lr_resolved = run.n_resolved;
      lr_leaked = render leaks;
      lr_double_resolved = render run.doubles;
      lr_detach_failures = render run.detach_fails;
    }
end

let make ?label () =
  let f = { state = Pending []; lbl = (match label with Some l -> l | None -> "") } in
  let run = !Run.latest in
  if run.running then begin
    run.n_created <- run.n_created + 1;
    if f.lbl <> "" then
      Lifecycle.track run
        {
          Run.tr_label = f.lbl;
          tr_owner = Option.map (fun p -> (p, p.Run.incarnation)) run.proc_ctx;
          tr_pending = (fun () -> is_pending f);
          tr_waited = (fun () -> has_waiters f);
        }
  end;
  (f, f)

let return v = { state = Resolved (Ok v); lbl = "" }
let fail e = { state = Resolved (Error e); lbl = "" }

let resolve_with t r =
  match t.state with
  | Resolved _ -> invalid_arg "Future: already resolved"
  | Pending cbs ->
      t.state <- Resolved r;
      let run = !Run.latest in
      if run.running then run.n_resolved <- run.n_resolved + 1;
      List.iter (fun cb -> cb r) (List.rev cbs)

let fulfill p v = resolve_with p (Ok v)
let break p e = resolve_with p (Error e)

let try_resolve_with t r =
  match t.state with
  | Resolved _ ->
      let run = !Run.latest in
      if run.running && t.lbl <> "" then run.doubles <- Lifecycle.bump run.doubles t.lbl;
      false
  | Pending _ ->
      resolve_with t r;
      true

let try_fulfill p v = try_resolve_with p (Ok v)
let try_break p e = try_resolve_with p (Error e)

let peek t = match t.state with Resolved (Ok v) -> Some v | _ -> None

let on_resolve t cb =
  match t.state with
  | Resolved r -> cb r
  | Pending cbs -> t.state <- Pending (cb :: cbs)

let bind t f =
  match t.state with
  | Resolved (Ok v) -> f v
  | Resolved (Error e) -> fail e
  | Pending _ ->
      let out, p = make () in
      on_resolve t (function
        | Error e -> break p e
        | Ok v -> (
            match f v with
            | exception e -> break p e
            | t' -> on_resolve t' (resolve_with p)));
      out

let map t f =
  match t.state with
  | Resolved (Ok v) -> ( match f v with exception e -> fail e | v' -> return v')
  | Resolved (Error e) -> fail e
  | Pending _ ->
      let out, p = make () in
      on_resolve t (function
        | Error e -> break p e
        | Ok v -> ( match f v with exception e -> break p e | v' -> fulfill p v'));
      out

let catch f h =
  match f () with
  | exception e -> h e
  | t -> (
      match t.state with
      | Resolved (Ok _) -> t
      | Resolved (Error e) -> h e
      | Pending _ ->
          let out, p = make () in
          on_resolve t (function
            | Ok v -> fulfill p v
            | Error e -> (
                match h e with
                | exception e' -> break p e'
                | t' -> on_resolve t' (resolve_with p)));
          out)

let protect ~finally f =
  let t = try f () with e -> fail e in
  match t.state with
  | Resolved _ ->
      finally ();
      t
  | Pending _ ->
      let out, p = make () in
      on_resolve t (fun r ->
          finally ();
          resolve_with p r);
      out

type 'a flight = 'a t option ref

let flight () = ref None

let single_flight fl f =
  match !fl with
  | Some t when is_pending t -> t
  | _ ->
      let t = try f () with e -> fail e in
      fl := Some t;
      t

let all ts =
  match ts with
  | [] -> return []
  | _ ->
      let n = List.length ts in
      let results = Array.make n None in
      let remaining = ref n in
      let out, p = make () in
      List.iteri
        (fun i t ->
          on_resolve t (function
            | Error e -> ignore (try_break p e : bool)
            | Ok v ->
                results.(i) <- Some v;
                decr remaining;
                if !remaining = 0 then
                  ignore
                    (try_fulfill p
                       (Array.to_list results
                       |> List.map (function Some v -> v | None -> assert false))
                     : bool)))
        ts;
      out

let all_unit ts = map (all ts) (fun _ -> ())

let join2 a b =
  bind a (fun va -> map b (fun vb -> (va, vb)))

exception Any_empty

let race_loser_exn = Cancelled "future.race loser"

(* The winner's resolution cancels every still-pending loser with
   [Cancelled] (traced, not raised): a loser left pending forever is a
   leaked wakeup — anyone blocked on it stalls silently, and the lifecycle
   sanitizer would report it at simulation end. Cancellation is delivered
   as an ordinary [Error] resolution, so downstream combinators see a
   normal failure, never an exception on the canceller's stack. *)
let race ts =
  match ts with
  | [] -> fail Any_empty
  | _ ->
      let out, p = make () in
      let cancel_losers () =
        List.iter
          (fun t ->
            if is_pending t then begin
              Trace.emit "future_race_loser_cancelled"
                [ ("label", if t.lbl = "" then "<unlabeled>" else t.lbl) ];
              ignore (try_break t race_loser_exn : bool)
            end)
          ts
      in
      List.iter
        (fun t ->
          on_resolve t (fun r ->
              if try_resolve_with p r then cancel_losers ()))
        ts;
      out

(* The approved detach idiom (lint rule R6): fire-and-forget a future
   WITHOUT swallowing its error side-channel. Failures are routed to a
   [future_detached_error] trace event (and tallied for the lifecycle
   report); successes are dropped. *)
let detach ~name t =
  let on_error e =
    let run = !Run.latest in
    if run.running then run.detach_fails <- Lifecycle.bump run.detach_fails name;
    Trace.emit "future_detached_error"
      [ ("actor", name); ("exn", Printexc.to_string e) ]
  in
  match t.state with
  | Resolved (Ok _) -> ()
  | Resolved (Error e) -> on_error e
  | Pending _ ->
      on_resolve t (function Ok _ -> () | Error e -> on_error e)

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) = map
  let ( and* ) = join2
end
