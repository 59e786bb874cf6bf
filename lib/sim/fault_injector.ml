module Rng = Fdb_util.Det_rng
open Future.Syntax

type config = {
  duration : float;
  kill_mean_interval : float;
  reboot_min : float;
  reboot_max : float;
  rack_kill_prob : float;
  dc_kill_prob : float;
  partition_mean_interval : float;
  partition_duration : float;
  clog_mean_interval : float;
  clog_duration : float;
}

let default =
  {
    duration = 120.0;
    kill_mean_interval = 15.0;
    reboot_min = 0.5;
    reboot_max = 10.0;
    rack_kill_prob = 0.15;
    dc_kill_prob = 0.02;
    partition_mean_interval = 20.0;
    partition_duration = 5.0;
    clog_mean_interval = 10.0;
    clog_duration = 2.0;
  }

let kill_machine (m : Process.machine) =
  Trace.emit "fault_kill_machine" [ ("machine", string_of_int m.Process.machine_id) ];
  List.iter Engine.kill m.Process.machine_processes

let reboot_machine ?(delay = 0.5) (m : Process.machine) =
  Trace.emit "fault_reboot_machine"
    [ ("machine", string_of_int m.Process.machine_id); ("delay", string_of_float delay) ];
  List.iter (fun p -> Engine.reboot p ~delay ()) m.Process.machine_processes

(* The share of machine-scope kill events that reboot one process of the
   machine instead of all of them. A process that dies on a machine that
   stays up is refused at once; a machine that goes down is silent. *)
let process_reboot_prob = 0.3

let reboot_process ~delay (p : Process.t) =
  Trace.emit "fault_reboot_process"
    [ ("process", p.Process.name); ("pid", string_of_int p.Process.pid);
      ("delay", string_of_float delay) ];
  Engine.reboot p ~delay ()

let kill_loop rng targets cfg stop_at =
  let rec loop () =
    let wait = Rng.exponential rng cfg.kill_mean_interval in
    let* () = Engine.sleep wait in
    if Engine.now () >= stop_at then Future.return ()
    else begin
      (match targets with
      | [] -> ()
      | candidates -> (
          let victim = Rng.pick_list rng candidates in
          let scope =
            let r = Rng.float rng 1.0 in
            if r < cfg.dc_kill_prob then `Dc
            else if r < cfg.dc_kill_prob +. cfg.rack_kill_prob then `Rack
            else if Rng.chance rng process_reboot_prob then `Process
            else `Machine
          in
          let delay = Rng.float rng (cfg.reboot_max -. cfg.reboot_min) +. cfg.reboot_min in
          let same_rack m =
            m.Process.dc = victim.Process.dc && m.Process.rack = victim.Process.rack
          in
          let live = List.filter (fun p -> p.Process.alive) victim.Process.machine_processes in
          match scope with
          | `Process when live <> [] -> reboot_process ~delay (Rng.pick_list rng live)
          | `Process | `Machine -> reboot_machine ~delay victim
          | `Rack -> List.iter (reboot_machine ~delay) (List.filter same_rack candidates)
          | `Dc ->
              List.iter (reboot_machine ~delay)
                (List.filter (fun m -> m.Process.dc = victim.Process.dc) candidates)));
      loop ()
    end
  in
  loop ()

let partition_loop rng net targets cfg stop_at =
  let rec loop () =
    let wait = Rng.exponential rng cfg.partition_mean_interval in
    let* () = Engine.sleep wait in
    if Engine.now () >= stop_at then Future.return ()
    else begin
      (match targets with
      | [] | [ _ ] -> ()
      | candidates ->
          let a = Rng.pick_list rng candidates in
          let b = Rng.pick_list rng candidates in
          if a.Process.machine_id <> b.Process.machine_id then begin
            let am = a.Process.machine_id and bm = b.Process.machine_id in
            let two_way = Rng.bool rng in
            Trace.emit "fault_partition"
              [ ("a", string_of_int am); ("b", string_of_int bm);
                ("two_way", string_of_bool two_way) ];
            Network.partition net ~from:am ~to_:bm;
            if two_way then Network.partition net ~from:bm ~to_:am;
            Engine.schedule ~after:cfg.partition_duration (fun () ->
                Network.heal net ~from:am ~to_:bm;
                Network.heal net ~from:bm ~to_:am)
          end);
      loop ()
    end
  in
  loop ()

let clog_loop rng net targets cfg stop_at =
  let rec loop () =
    let wait = Rng.exponential rng cfg.clog_mean_interval in
    let* () = Engine.sleep wait in
    if Engine.now () >= stop_at then Future.return ()
    else begin
      (match targets with
      | [] -> ()
      | candidates ->
          let m = Rng.pick_list rng candidates in
          let until = Engine.now () +. Rng.float rng cfg.clog_duration in
          Trace.emit "fault_clog"
            [ ("machine", string_of_int m.Process.machine_id);
              ("until", string_of_float until) ];
          Network.clog_machine net m.Process.machine_id until);
      loop ()
    end
  in
  loop ()

let run ~net ~machines cfg =
  let stop_at = Engine.now () +. cfg.duration in
  let rng = Engine.fork_rng () and targets = Array.to_list machines in
  let loops =
    List.concat
      [
        (if cfg.kill_mean_interval > 0.0 then
           [ kill_loop (Rng.split rng) targets cfg stop_at ]
         else []);
        (if cfg.partition_mean_interval > 0.0 then
           [ partition_loop (Rng.split rng) net targets cfg stop_at ]
         else []);
        (if cfg.clog_mean_interval > 0.0 then
           [ clog_loop (Rng.split rng) net targets cfg stop_at ]
         else []);
      ]
  in
  let* () = Future.all_unit loops in
  (* Heal the world so recoverability checks can run. *)
  Array.iter
    (fun m ->
      List.iter
        (fun p -> if not p.Process.alive then Engine.reboot p ~delay:0.1 ())
        m.Process.machine_processes)
    machines;
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          Network.heal net ~from:a.Process.machine_id ~to_:b.Process.machine_id)
        machines)
    machines;
  Engine.sleep 0.2
