(* Fixture: the qualified, wrapped and aliased reference forms, plus record
   fields and labels that must not count. *)
module W = Fdb_fixture.R7_widget

type r = { field_name : int }

let a = R7_widget.by_qualified
let b = Fdb_fixture.R7_widget.by_wrapped
let c = W.by_alias
let f = R7_widget.Nested.by_nested_path
let g = R7_widget.stale_kept
let h r = r.field_name + { field_name = 1 }.field_name
let i ~field_name:x = x
