(* Fixture: the fields of every record a protocol declares, checked as
   lib/lint_fixtures/r9_fields.ml against r9_fields_users.ml. Its own reads
   below never count. *)
type answer = { read_back : int; never_read : int }

type _ req =
  | Req : { in_pattern : int; by_dot : int; unread : int } -> answer req
  | Note : {
      shipped : int;
      (* fdb-lint: allow R9 -- kept so older peers still decode the stream *)
      kept : int;
    }
      -> unit req

let own : type r. r req -> int = function
  | Req { unread; _ } -> unread
  | Note { shipped; kept } -> shipped + kept

let own_answer a = a.never_read
