(* Fixture: R8 — module-level mutable state. *)
let counter = ref 0

module Registry = struct
  let cells : (string, int) Fdb_util.Det_tbl.t = Fdb_util.Det_tbl.create ()
end

(* fdb-lint: allow R8 -- the fixture's one sanctioned slot *)
let slot = ref None

let fresh () =
  let local = ref 0 in
  incr local;
  !local
