(* Fixture: a bare name in a file that opens the module. *)
open Fdb_fixture.R7_widget

let x = by_open
