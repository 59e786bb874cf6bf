(* Fixture: the interface's own module. Its uses never clear a val. *)
let dead = 0
let own_use_only x = x + 1
let twice x = own_use_only (own_use_only x)
let by_qualified = twice dead
