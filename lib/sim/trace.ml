type event = Run.event = { te_time : float; te_name : string; te_fields : (string * string) list }

(* Every event kind emitted during a run is folded into the run's trace
   checksum (the double-run determinism oracle). *)
let emit name fields =
  let run = !Run.latest in
  if run.running then run.csum <- Run.fnv1a_string run.csum name;
  run.events <- { te_time = run.clock; te_name = name; te_fields = fields } :: run.events

let events () = List.rev !Run.latest.events

let dump fmt () =
  List.iter
    (fun e ->
      Format.fprintf fmt "%.6f %s" e.te_time e.te_name;
      List.iter (fun (k, v) -> Format.fprintf fmt " %s=%s" k v) e.te_fields;
      Format.fprintf fmt "@.")
    (events ())

let count name =
  List.fold_left (fun acc e -> if e.te_name = name then acc + 1 else acc) 0 !Run.latest.events
