(* Fixture: a reference from test/ only. *)
let t = Fdb_fixture.R7_widget.by_test
