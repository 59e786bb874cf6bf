(* Fixture: the fields of a protocol variant's inline records, checked as
   lib/lint_fixtures/r9_fields.ml against r9_fields_users.ml. Its own reads
   below never count. *)
type t =
  | Req of { in_pattern : int; by_dot : int; unread : int }
  | Reply of {
      shipped : int;
      (* fdb-lint: allow R9 -- kept so older peers still decode the stream *)
      kept : int;
    }

let own = function Req { unread; _ } -> unread | Reply { shipped; kept } -> shipped + kept
