(* Fixture: a protocol variant, checked as lib/lint_fixtures/r9_proto.ml
   against r9_users.ml. Its own uses below never count. *)
type t =
  | Both
  | Sent_only
  | Served_only
  | Unused
  (* fdb-lint: allow R9 -- kept so older peers still decode the stream *)
  | Suppressed
  | Payload of { x : int }

(* Only [type t] is the protocol. *)
type other = Other

let to_string = function
  | Both -> "Both"
  | Sent_only -> "Sent_only"
  | Served_only -> "Served_only"
  | Unused -> "Unused"
  | Suppressed -> "Suppressed"
  | Payload _ -> "Payload"

let own = (Unused, Served_only, Other)
