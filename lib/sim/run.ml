(* One simulation run's state (paper §4: a run is a pure function of its
   seed). [Engine.run] creates a record, installs it in [latest] and owns
   it until the run ends; Trace, Buggify, Future.Lifecycle and Process
   read the run through that one slot. A finished record stays there, so
   its trace, checksum, lifecycle report and fired Buggify points remain
   readable after the run. *)

module Rng = Fdb_util.Det_rng
module Det_tbl = Fdb_util.Det_tbl

(* Process's record types (documented in process.mli, which re-exports
   them): they live here because a run holds the process context and its
   tasks' owners, and allocates pids. *)
type machine = {
  machine_id : int;
  dc : string;
  rack : string;
  mutable machine_processes : process list;
}

and process = {
  pid : int;
  name : string;
  machine : machine;
  mutable alive : bool;
  mutable incarnation : int;
  mutable cpu_busy_until : float;
  mutable cpu_used : float;
  mutable boot : unit -> unit;
  mutable reboot_hooks : (unit -> unit) list;
}

type task = {
  t_time : float;
  t_seq : int;
  t_owner : (process * int) option; (* process, incarnation at schedule time *)
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

(* Trace's event and Future.Lifecycle's report and registry entry, each
   documented where it is re-exported. *)
type event = { te_time : float; te_name : string; te_fields : (string * string) list }

type report = {
  lr_created : int;
  lr_resolved : int;
  lr_leaked : (string * int) list;
  lr_double_resolved : (string * int) list;
  lr_detach_failures : (string * int) list;
}

let empty_report =
  {
    lr_created = 0;
    lr_resolved = 0;
    lr_leaked = [];
    lr_double_resolved = [];
    lr_detach_failures = [];
  }

type tracked = {
  tr_label : string;
  tr_owner : (process * int) option; (* creating process, incarnation *)
  tr_pending : unit -> bool;
  tr_waited : unit -> bool;
}

type t = {
  mutable running : bool; (* from Engine.run's start to its finish *)
  (* Engine *)
  heap : Heap.t;
  mutable clock : float;
  mutable seq : int;
  root_rng : Rng.t;
  mutable proc_ctx : process option;
  mutable csum : int64; (* running FNV-1a over executed events *)
  (* Process *)
  mutable next_pid : int;
  (* Trace, newest first *)
  mutable events : event list;
  (* Buggify *)
  buggify : bool;
  buggify_rng : Rng.t;
  point_active : (string, bool) Hashtbl.t;
  fired : (string, unit) Det_tbl.t;
  (* Future.Lifecycle *)
  mutable n_created : int;
  mutable n_resolved : int;
  mutable tracked : tracked list; (* labeled promises, newest first *)
  mutable n_tracked : int;
  mutable prune_at : int;
  mutable doubles : (string * int ref) list;
  mutable detach_fails : (string * int ref) list;
  mutable report : report; (* set when the run finishes *)
}

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

(* A record that is not yet running, with task queue [heap]. The Buggify
   stream is split from the root RNG before the run draws anything,
   whether or not it is used. The points named in [active] start out
   activated, so they draw no activation. *)
let create ?(active = []) heap ~seed ~buggify =
  let root_rng = Rng.create seed in
  let buggify_rng = Rng.split root_rng in
  let point_active = Hashtbl.create 32 in
  List.iter (fun name -> Hashtbl.replace point_active name true) active;
  {
    running = false;
    heap;
    clock = 0.0;
    seq = 0;
    root_rng;
    proc_ctx = None;
    csum = fnv1a_int64 fnv_offset seed;
    next_pid = 0;
    events = [];
    buggify;
    buggify_rng;
    point_active;
    fired = Det_tbl.create ~size:32 ();
    n_created = 0;
    n_resolved = 0;
    tracked = [];
    n_tracked = 0;
    prune_at = 1024;
    doubles = [];
    detach_fails = [];
    report = empty_report;
  }

(* The most recent run, or before the first an idle record whose task
   queue is an empty array: a queue allocated at start-up would shift the
   major GC's pacing, and with it every later run's peak heap. *)
(* fdb-lint: allow R8 -- the one run slot; a parallel seed farm makes it domain-local *)
let latest = ref (create { Heap.arr = [||]; len = 0 } ~seed:0L ~buggify:false)
