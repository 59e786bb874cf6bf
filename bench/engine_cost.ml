(* Simulator cost baseline (BENCH_engine.json): whole swarm runs of fixed
   seeds, measured as tasks, minor words per task and CPU time.

   Method: [Swarm.run_one ~seed ()] at its default duration, in this
   process. Tasks is the run record's [seq] after the run (every task the
   engine scheduled, [Run.t.seq]). Words is [Gc.minor_words ()] across the
   call, so it counts everything the run allocates (cluster boot, workloads,
   oracles); it repeats exactly for a seed. CPU seconds is [Sys.time ()]
   across the call, and tasks/s is tasks over CPU seconds; both vary with
   the machine.

   The smoke mode runs one short seed and fails if its words per task
   exceed [smoke_words_per_task] by more than 5%. *)

open Fdb_workloads

let seeds = [ 1L; 2L ]
let smoke_seed = 1L
let smoke_duration = 5.0

(* Words per task of the smoke run (seed 1, 5 simulated seconds). *)
let smoke_words_per_task = 196.3

let smoke_tolerance = 1.05

type row = { seed : int64; tasks : int; words : float; cpu_s : float }

(* The full runs measured the same way before the resolver history and
   Det_rng stopped boxing int64s. *)
let before =
  [
    { seed = 1L; tasks = 804_842; words = 180_578_727.0; cpu_s = 2.89 };
    { seed = 2L; tasks = 544_510; words = 121_822_927.0; cpu_s = 1.89 };
  ]

let words_per_task r = r.words /. float_of_int r.tasks

let measure ?duration seed =
  let w0 = Gc.minor_words () and c0 = Bench_util.cpu () in
  let report = Swarm.run_one ?duration ~seed () in
  let cpu_s = Bench_util.cpu () -. c0 and words = Gc.minor_words () -. w0 in
  if report.Swarm.oracle_failures <> [] then
    failwith (Printf.sprintf "engine bench: seed %Ld failed its oracles" seed);
  let r = { seed; tasks = !Fdb_sim.Run.latest.Fdb_sim.Run.seq; words; cpu_s } in
  Bench_util.row "seed %Ld: %d tasks, %.1f words/task, %.2f s CPU, %.0f tasks/s\n" seed
    r.tasks (words_per_task r) cpu_s
    (float_of_int r.tasks /. cpu_s);
  r

let write_json ~smoke rows =
  let oc = open_out "BENCH_engine.json" in
  Printf.fprintf oc "{\n  \"bench\": \"engine\",\n  \"mode\": \"%s\",\n"
    (if smoke then "smoke" else "full");
  Printf.fprintf oc
    "  \"method\": \"Swarm.run_one ~seed () %s in one process; tasks = Run.t.seq \
     after the run (tasks scheduled); words = Gc.minor_words () across the call \
     (exact, repeats per seed); cpu_s = Sys.time () across the call; tasks_per_s = \
     tasks / cpu_s\",\n"
    (if smoke then Printf.sprintf "~duration:%.1f" smoke_duration else "at its default duration");
  let json_rows rows =
    String.concat ",\n"
      (List.map
         (fun r ->
           Printf.sprintf
             "    {\"seed\": %Ld, \"tasks\": %d, \"minor_words\": %.0f, \
              \"words_per_task\": %.1f, \"cpu_s\": %.2f, \"tasks_per_s\": %.0f}"
             r.seed r.tasks r.words (words_per_task r) r.cpu_s
             (float_of_int r.tasks /. r.cpu_s))
         rows)
  in
  Printf.fprintf oc "  \"before\": [\n%s\n  ],\n  \"runs\": [\n%s\n  ]\n}\n"
    (json_rows before) (json_rows rows);
  close_out oc;
  Bench_util.row "wrote BENCH_engine.json\n"

let run ?(smoke = false) () =
  Bench_util.header "Simulator cost: swarm tasks, minor words per task, CPU time";
  if smoke then begin
    let r = measure ~duration:smoke_duration smoke_seed in
    write_json ~smoke [ r ];
    let limit = smoke_words_per_task *. smoke_tolerance in
    Bench_util.row "words/task %.1f (floor %.1f +5%% = %.1f)\n" (words_per_task r)
      smoke_words_per_task limit;
    if words_per_task r > limit then
      failwith
        (Printf.sprintf "engine bench: %.1f words/task exceeds %.1f" (words_per_task r) limit)
  end
  else write_json ~smoke (List.map (fun s -> measure s) seeds)
