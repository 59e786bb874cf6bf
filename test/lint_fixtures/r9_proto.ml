(* Fixture: a protocol's request type, checked as lib/lint_fixtures/r9_proto.ml
   against r9_users.ml. Its own uses below never count. *)
type _ req =
  | Both : unit req
  | Sent_only : unit req
  | Served_only : int req
  | Unused : unit req
  (* fdb-lint: allow R9 -- kept so older peers still decode the stream *)
  | Suppressed : unit req
  | Payload : { x : int } -> int req

(* Only [type _ req] is the protocol. *)
type other = Other

let to_string : type r. r req -> string = function
  | Both -> "Both"
  | Sent_only -> "Sent_only"
  | Served_only -> "Served_only"
  | Unused -> "Unused"
  | Suppressed -> "Suppressed"
  | Payload _ -> "Payload"

let own = (Unused, Served_only, Other)
