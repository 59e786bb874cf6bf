(* Fixture: reads of R9_fields' inline-record fields, by record pattern and
   by field access. Building a record is not a read. *)
let send () = R9_fields.Req { in_pattern = 1; by_dot = 2; unread = 3 }
let reply () = R9_fields.Reply { shipped = 1; kept = 2 }

let serve = function
  | R9_fields.Req { in_pattern; _ } -> in_pattern
  | R9_fields.Reply { shipped; _ } -> shipped

let dot = function R9_fields.Req r -> r.by_dot | R9_fields.Reply _ -> 0
