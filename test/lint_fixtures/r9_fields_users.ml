(* Fixture: reads of R9_fields' record fields, by record pattern and by
   field access. Building a record is not a read. *)
let send () = R9_fields.Req { in_pattern = 1; by_dot = 2; unread = 3 }
let note () = R9_fields.Note { shipped = 1; kept = 2 }
let answer () = { R9_fields.read_back = 1; never_read = 2 }

let serve : type r. r R9_fields.req -> int = function
  | R9_fields.Req { in_pattern; _ } -> in_pattern
  | R9_fields.Note { shipped; _ } -> shipped

let dot : type r. r R9_fields.req -> int = function
  | R9_fields.Req r -> r.by_dot
  | R9_fields.Note _ -> 0

let read_back a = a.R9_fields.read_back
