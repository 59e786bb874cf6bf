type series = float list

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sorted xs = List.sort compare xs

let percentile xs p =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      let rank = max 1 (min n rank) in
      List.nth s (rank - 1)

let median xs = percentile xs 50.0
let maximum = function [] -> 0.0 | xs -> List.fold_left Float.max neg_infinity xs
