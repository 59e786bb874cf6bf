(* Fixture: R7 dead exports. The golden test lints this interface as
   lib/lint_fixtures/r7_widget.mli against r7_widget.ml (its own module),
   r7_users.ml and r7_opener.ml (as bin/) and r7_test_user.ml (as test/). *)

val dead : int
val own_use_only : int -> int
val by_qualified : int
val by_wrapped : int
val by_alias : int
val by_open : int
val by_test : int
val field_name : int
val kept : int (* fdb-lint: allow R7 -- client API with no caller yet *)
val no_reason : int (* fdb-lint: allow R7 *)

(* fdb-lint: allow R7 -- stale: r7_users.ml references this one *)
val stale_kept : int

module Nested : sig
  val by_nested_path : int
  val nested_dead : int
end
