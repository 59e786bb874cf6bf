(* fdb_bench: the end-to-end benchmark (README.md in this directory).

     fdb_bench --workload W --seed N --seconds S --trace 0|1
     fdb_bench smoke --benchmark BENCHMARK.json
     fdb_bench compare --bounds BENCHMARK.json --parent FILE... --change FILE...
     fdb_bench summarize FILE...
     fdb_bench list

   A run prints a report, then one JSON line: with --trace 0 the end-to-end
   metrics, with --trace 1 the per-layer metrics of a traced run (and a
   Chrome trace under _bench/). It exits non-zero when the system's
   outputs fail a check. *)

let usage () =
  prerr_endline
    "usage: fdb_bench [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \       fdb_bench smoke --benchmark BENCHMARK.json\n\
    \       fdb_bench compare --bounds BENCHMARK.json --parent FILE... --change FILE...\n\
    \       fdb_bench summarize FILE...\n\
    \       fdb_bench list";
  exit 2

let rec flags acc = function
  | name :: value :: rest when String.starts_with ~prefix:"--" name ->
      flags ((String.sub name 2 (String.length name - 2), value) :: acc) rest
  | [] -> List.rev acc
  | _ -> usage ()

let flag args name ~default =
  match (List.assoc_opt name args, default) with
  | Some v, _ | None, Some v -> v
  | None, None -> usage ()

(* Wall-clock budget of one run. Every workload finishes in well under a
   minute at --seconds 12; a run still going at 170 s has stopped making
   progress, and aborting then still ends the process within 180 s. *)
let budget_s = 170.0

let run argv =
  Harness.deadline := Harness.wall () +. budget_s;
  let args = flags [] argv in
  let name = flag args "workload" ~default:None in
  let number parse s = match parse s with Some v -> v | None -> usage () in
  let seed = number Int64.of_string_opt (flag args "seed" ~default:(Some "1")) in
  let seconds = number float_of_string_opt (flag args "seconds" ~default:(Some "12")) in
  let trace =
    match flag args "trace" ~default:(Some "0") with "0" -> false | "1" -> true | _ -> usage ()
  in
  match Workloads.find name with
  | None ->
      Printf.eprintf "fdb_bench: unknown workload %s (fdb_bench list)\n" name;
      exit 2
  | Some w -> (
      match Runner.run_workload w ~seed ~seconds ~trace with
      | true -> ()
      | false -> exit 1
      | exception Harness.Over_budget ->
          prerr_endline "fdb_bench: aborted: the run outgrew its wall-clock or heap budget";
          exit 1)

(* Every workload, traced, at a tiny size. Fails when BENCHMARK.json and
   the metric catalog disagree on a name or unit, when a metric comes out
   missing or not finite, when a workload's output check fails, or when
   tracing perturbs the first workload's run. *)
let smoke argv =
  let args = flags [] argv in
  let bench = Json.parse (Json.read_file (flag args "benchmark" ~default:None)) in
  let entries key =
    List.map
      (fun x ->
        ( Option.value (Option.bind (Json.member "name" x) Json.to_str) ~default:"",
          Option.value (Option.bind (Json.member "unit" x) Json.to_str) ~default:"" ))
      (Json.to_list (Option.value (Json.member key bench) ~default:Json.Null))
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let same_set what a b =
    if List.sort compare a <> List.sort compare b then
      fail "BENCHMARK.json %s differ from the benchmark's own list" what
  in
  same_set "end_to_end metrics" (entries "end_to_end") Metrics.end_to_end;
  same_set "per_layer metrics" (entries "per_layer") Metrics.per_layer;
  same_set "workloads" (List.map fst (entries "workloads"))
    (List.map (fun w -> w.Workloads.name) Workloads.all);
  List.iteri
    (fun i w ->
      let traced, _ = Runner.run_once w ~seed:1L ~seconds:0.05 ~traced:true in
      let plain =
        if i = 0 then fst (Runner.run_once w ~seed:1L ~seconds:0.05 ~traced:false) else traced
      in
      List.iter
        (fun p -> fail "%s: %s" w.Workloads.name p)
        (traced.Runner.problems @ if i = 0 then Runner.perturbation ~plain ~traced else []);
      List.iter
        (fun x ->
          if not (Float.is_finite x.Metrics.value) then
            fail "%s: metric %s is not finite" w.Workloads.name x.Metrics.name)
        (Runner.end_to_end traced ~setup_s:traced.Runner.setup_cpu @ Runner.per_layer ~plain ~traced);
      Printf.printf "smoke: %s done\n%!" w.Workloads.name)
    Workloads.all;
  List.iter (Printf.printf "smoke FAILED: %s\n") (List.rev !failures);
  if !failures = [] then 0 else 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "list" :: _ -> List.iter (fun w -> print_endline w.Workloads.name) Workloads.all
  | "smoke" :: rest -> exit (smoke rest)
  | "compare" :: rest -> exit (Compare.main rest)
  | "summarize" :: (_ :: _ as files) -> exit (Compare.summarize files)
  | "run" :: rest -> run rest
  | argv -> run argv
