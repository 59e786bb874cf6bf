exception Deadlock
exception Timed_out
exception Killed

module Rng = Fdb_util.Det_rng

type task = {
  t_time : float;
  t_seq : int;
  t_owner : (Process.t * int) option; (* process, incarnation at schedule time *)
  t_run : unit -> unit;
}

(* Binary min-heap on (time, seq). seq breaks ties FIFO, which is what makes
   the whole simulation deterministic. *)
module Heap = struct
  type t = { mutable arr : task array; mutable len : int }

  let dummy =
    { t_time = 0.0; t_seq = 0; t_owner = None; t_run = (fun () -> ()) }

  let create () = { arr = Array.make 1024 dummy; len = 0 }

  let less a b = a.t_time < b.t_time || (a.t_time = b.t_time && a.t_seq < b.t_seq)

  let push h x =
    if h.len = Array.length h.arr then begin
      let arr' = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 arr' 0 h.len;
      h.arr <- arr'
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    h.arr.(!i) <- x;
    (* sift up *)
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if less h.arr.(!i) h.arr.(parent) then begin
        let tmp = h.arr.(parent) in
        h.arr.(parent) <- h.arr.(!i);
        h.arr.(!i) <- tmp;
        i := parent
      end
      else continue := false
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      h.arr.(h.len) <- dummy;
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && less h.arr.(l) h.arr.(!smallest) then smallest := l;
        if r < h.len && less h.arr.(r) h.arr.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = h.arr.(!smallest) in
          h.arr.(!smallest) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

type engine = {
  heap : Heap.t;
  mutable clock : float;
  mutable seq : int;
  root_rng : Rng.t;
  mutable proc_ctx : Process.t option;
  mutable csum : int64; (* running FNV-1a over executed events *)
}

let current : engine option ref = ref None

(* ---- trace checksum (paper §4's nondeterminism backstop) ----
   Every executed event — each dispatched task's (time, pid, seq) and each
   Trace event kind — is folded into a running FNV-1a64. Two runs of the
   same seed must produce the same final checksum; any wall-clock read,
   unseeded RNG draw, or unordered iteration shows up as a divergence. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fnv1a_int64 h v =
  let h = ref h in
  for i = 0 to 7 do
    h := fnv1a_byte !h (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done;
  !h

let fnv1a_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv1a_byte !h (Char.code c)) s;
  !h

let last_checksum = ref 0L
let last_lifecycle = ref Future.Lifecycle.empty

let get () =
  match !current with
  | Some e -> e
  | None -> failwith "Engine: no simulation running"

let is_running () = Option.is_some !current
let now () = (get ()).clock
let last_run_checksum () = !last_checksum
let last_run_lifecycle () = !last_lifecycle
let pending_tasks () = (get ()).heap.Heap.len

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
  Heap.push e.heap
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

let run ?(seed = 1L) ?(max_time = 1e7) ?(buggify = false) f =
  (match !current with
  | Some _ -> failwith "Engine.run: simulation already running"
  | None -> ());
  let e =
    {
      heap = Heap.create ();
      clock = 0.0;
      seq = 0;
      root_rng = Rng.create seed;
      proc_ctx = None;
      csum = fnv1a_int64 fnv_offset seed;
    }
  in
  current := Some e;
  Process.reset_pids ();
  Trace.reset ();
  Trace.set_clock (fun () -> e.clock);
  Trace.set_observer (fun kind -> e.csum <- fnv1a_string e.csum kind);
  Buggify.configure ~enabled:buggify ~rng:(Rng.split e.root_rng);
  (* Promise-lifecycle sanitizer: labeled promises are registered against
     the process that created them; the report at [finish] convicts the
     ones still pending with waiters on live processes (leaked wakeups).
     Pure bookkeeping — the trace checksum is unaffected. *)
  Future.Lifecycle.enable ~owner:(fun () ->
      match e.proc_ctx with
      | Some p -> Some (p, p.Process.incarnation)
      | None -> None);
  let finish () =
    Buggify.reset ();
    Trace.clear_observer ();
    last_checksum := e.csum;
    last_lifecycle := Future.Lifecycle.snapshot ();
    Future.Lifecycle.disable ();
    current := None
  in
  match
    let root = f () in
    let result = ref None in
    Future.on_resolve root (fun r -> result := Some r);
    let rec loop () =
      match !result with
      | Some r -> r
      | None -> (
          match Heap.pop e.heap with
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
                  fnv1a_int64
                    (fnv1a_int64
                       (fnv1a_int64 e.csum (Int64.bits_of_float task.t_time))
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
    loop ()
  with
  | Ok v ->
      finish ();
      v
  | Error exn ->
      finish ();
      raise exn
  | exception exn ->
      finish ();
      raise exn
