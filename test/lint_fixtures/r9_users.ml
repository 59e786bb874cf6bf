(* Fixture: qualified and wrapped uses of R9_proto, in expressions and in
   patterns. A bare constructor is not a use. *)
let send () = R9_proto.Both
let send_wrapped () = Fdb_fixture.R9_proto.Sent_only
let payload = R9_proto.Payload { x = 1 }

let serve : type r. r R9_proto.req -> int = function
  | R9_proto.Both -> 1
  | Fdb_fixture.R9_proto.Served_only -> 2
  | R9_proto.Payload { x } -> x
  | Unused -> 3
  | _ -> 0
