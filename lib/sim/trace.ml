type event = { te_time : float; te_name : string; te_fields : (string * string) list }

let buffer : event list ref = ref []
let clock : (unit -> float) ref = ref (fun () -> 0.0)

(* The engine registers itself here to fold every emitted event into its
   running trace checksum (the double-run determinism oracle). Called on
   every emit. *)
let observer : (string -> unit) ref = ref (fun _ -> ())

let reset () =
  buffer := [];
  clock := fun () -> 0.0

let set_clock f = clock := f
let set_observer f = observer := f
let clear_observer () = observer := (fun _ -> ())

let emit name fields =
  !observer name;
  buffer := { te_time = !clock (); te_name = name; te_fields = fields } :: !buffer

let events () = List.rev !buffer

let dump fmt () =
  List.iter
    (fun e ->
      Format.fprintf fmt "%.6f %s" e.te_time e.te_name;
      List.iter (fun (k, v) -> Format.fprintf fmt " %s=%s" k v) e.te_fields;
      Format.fprintf fmt "@.")
    (events ())

let count name =
  List.fold_left (fun acc e -> if e.te_name = name then acc + 1 else acc) 0 !buffer
