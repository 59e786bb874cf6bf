exception Deadlock
exception Timed_out
exception Killed

module Rng = Fdb_util.Det_rng

let get () =
  let e = !Run.latest in
  if e.running then e else failwith "Engine: no simulation running"

let is_running () = !Run.latest.running
let now () = (get ()).clock
let last_run_checksum () = !Run.latest.csum
let last_run_lifecycle () = !Run.latest.report
let pending_tasks () = (get ()).heap.len

let schedule ?(after = 0.0) ?process f =
  let e = get () in
  let owner =
    match process with
    | Some p -> Some (p, p.Process.incarnation)
    | None -> (
        match e.proc_ctx with
        | Some p -> Some (p, p.Process.incarnation)
        | None -> None)
  in
  e.seq <- e.seq + 1;
  let after = if after < 0.0 then 0.0 else after in
  Run.Heap.push e.heap
    { t_time = e.clock +. after; t_seq = e.seq; t_owner = owner; t_run = f }

let with_process p f =
  let e = get () in
  let saved = e.proc_ctx in
  e.proc_ctx <- Some p;
  Fun.protect ~finally:(fun () -> e.proc_ctx <- saved) f

let sleep dt =
  let fut, promise = Future.make () in
  schedule ~after:dt (fun () -> Future.fulfill promise ());
  fut

let sleep_until t =
  let dt = t -. now () in
  sleep (if dt < 0.0 then 0.0 else dt)

let spawn ?process name f =
  let start () =
    match f () with
    | fut ->
        Future.on_resolve fut (function
          | Ok () -> ()
          | Error e -> Trace.emit "actor_error" [ ("actor", name); ("exn", Printexc.to_string e) ])
    | exception e ->
        Trace.emit "actor_error" [ ("actor", name); ("exn", Printexc.to_string e) ]
  in
  match process with
  | Some p -> schedule ~process:p (fun () -> with_process p start)
  | None -> schedule start

let timeout dt fut =
  if Future.is_resolved fut then fut
  else begin
    let out, p = Future.make () in
    Future.on_resolve fut (fun r ->
        (* false = the timeout fired first; the result is intentionally dropped. *)
        ignore
          ((match r with
           | Ok v -> Future.try_fulfill p v
           | Error e -> Future.try_break p e)
           : bool));
    (* false = the underlying future won the race; not a lost wakeup. *)
    schedule ~after:dt (fun () -> ignore (Future.try_break p Timed_out : bool));
    out
  end

let fork_rng () = Rng.split (get ()).root_rng
let random_float b = Rng.float (get ()).root_rng b
let random_int b = Rng.int (get ()).root_rng b
let chance p = Rng.chance (get ()).root_rng p

let cpu p dt =
  let e = get () in
  let open Process in
  let start = if p.cpu_busy_until > e.clock then p.cpu_busy_until else e.clock in
  let finish = start +. dt in
  p.cpu_busy_until <- finish;
  p.cpu_used <- p.cpu_used +. dt;
  let fut, promise = Future.make () in
  schedule ~after:(finish -. e.clock) ~process:p (fun () -> Future.fulfill promise ());
  fut

let kill p =
  Trace.emit "kill" [ ("process", p.Process.name); ("pid", string_of_int p.Process.pid) ];
  Process.mark_dead p

let reboot p ?(delay = 0.5) () =
  if p.Process.alive then Process.mark_dead p;
  (* The reboot task must not be owned by the (dead) process itself. *)
  schedule ~after:delay (fun () ->
      if not p.Process.alive then begin
        Process.mark_rebooted p;
        Trace.emit "reboot"
          [ ("process", p.Process.name); ("pid", string_of_int p.Process.pid) ];
        with_process p (fun () -> p.Process.boot ())
      end)

let run ?(seed = 1L) ?(max_time = 1e7) ?(buggify = false) ?buggify_active f =
  if is_running () then failwith "Engine.run: simulation already running";
  let e = Run.create ?active:buggify_active (Run.Heap.create ()) ~seed ~buggify in
  Run.latest := e;
  e.running <- true;
  let finish () =
    e.report <- Future.Lifecycle.snapshot ();
    e.running <- false;
    (* Drop what keeps the run's cluster reachable: its queued tasks and
       the sanitizer's registry. *)
    e.heap.arr <- [||];
    e.heap.len <- 0;
    e.tracked <- []
  in
  Fun.protect ~finally:finish @@ fun () ->
  let root = f () in
  let result = ref None in
  Future.on_resolve root (fun r -> result := Some r);
  let rec loop () =
    match !result with
    | Some r -> r
    | None -> (
        match Run.Heap.pop e.heap with
        | None -> raise Deadlock
        | Some task ->
            if task.t_time > max_time then
              failwith
                (Printf.sprintf "Engine.run: exceeded max_time %.0fs" max_time);
            if task.t_time > e.clock then e.clock <- task.t_time;
            let live =
              match task.t_owner with
              | None -> true
              | Some (p, inc) -> Process.is_live p inc
            in
            if live then begin
              let pid =
                match task.t_owner with Some (p, _) -> p.Process.pid | None -> -1
              in
              e.csum <-
                Run.fnv1a_int64
                  (Run.fnv1a_int64
                     (Run.fnv1a_int64 e.csum (Int64.bits_of_float task.t_time))
                     (Int64.of_int pid))
                  (Int64.of_int task.t_seq);
              let saved = e.proc_ctx in
              e.proc_ctx <- (match task.t_owner with Some (p, _) -> Some p | None -> None);
              (try task.t_run ()
               with exn ->
                 e.proc_ctx <- saved;
                 raise exn);
              e.proc_ctx <- saved
            end;
            loop ())
  in
  match loop () with Ok v -> v | Error exn -> raise exn
