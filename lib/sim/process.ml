type machine = Run.machine = {
  machine_id : int;
  dc : string;
  rack : string;
  mutable machine_processes : t list;
}

and t = Run.process = {
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

let fresh_machine ?(dc = "dc0") ?(rack = "rack0") machine_id =
  { machine_id; dc; rack; machine_processes = [] }

let create ?(name = "process") machine =
  let run = !Run.latest in
  run.next_pid <- run.next_pid + 1;
  let p =
    {
      pid = run.next_pid;
      name;
      machine;
      alive = true;
      incarnation = 0;
      cpu_busy_until = 0.0;
      cpu_used = 0.0;
      boot = (fun () -> ());
      reboot_hooks = [];
    }
  in
  machine.machine_processes <- p :: machine.machine_processes;
  p

let is_live p inc = p.alive && p.incarnation = inc
let machine_up m = List.exists (fun p -> p.alive) m.machine_processes
let on_reboot p hook = p.reboot_hooks <- hook :: p.reboot_hooks

let mark_dead p =
  if p.alive then begin
    p.alive <- false;
    List.iter (fun h -> h ()) p.reboot_hooks
  end

let mark_rebooted p =
  p.incarnation <- p.incarnation + 1;
  p.alive <- true;
  p.cpu_busy_until <- 0.0
