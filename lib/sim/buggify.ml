module Rng = Fdb_util.Det_rng
module Det_tbl = Fdb_util.Det_tbl

let activation_probability = 0.25

let on ?(p = 0.25) name =
  let run = !Run.latest in
  if not (run.running && run.buggify) then false
  else begin
    let active =
      match Hashtbl.find_opt run.point_active name with
      | Some a -> a
      | None ->
          let a = Rng.chance run.buggify_rng activation_probability in
          Hashtbl.add run.point_active name a;
          a
    in
    if active && Rng.chance run.buggify_rng p then begin
      Det_tbl.replace run.fired name ();
      true
    end
    else false
  end

let delay ?p name = if on ?p name then Rng.float !Run.latest.buggify_rng 1.0 else 0.0

let points_hit () = Det_tbl.keys !Run.latest.fired
