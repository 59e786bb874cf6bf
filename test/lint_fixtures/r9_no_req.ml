(* Fixture: a protocol file with no [type _ req]. R9 reports the file
   rather than pass it with nothing checked. *)
type t = Ping | Pong
