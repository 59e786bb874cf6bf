(* Point operations delegate to a backing Hashtbl; enumerations sort a
   snapshot of the bindings by key, making iteration order a function of
   the contents only. This module is the single place in the tree where
   raw Hashtbl enumeration is allowed (lint rule R2). *)

type ('k, 'v) t = ('k, 'v) Hashtbl.t

let create ?(size = 16) () = Hashtbl.create size
let length = Hashtbl.length
let mem = Hashtbl.mem
let find_opt = Hashtbl.find_opt
let replace = Hashtbl.replace
let add = Hashtbl.replace
let remove = Hashtbl.remove
let reset = Hashtbl.reset

let find_or_add t k make =
  match Hashtbl.find_opt t k with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace t k v;
      v

let to_sorted_list t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let iter f t = List.iter (fun (k, v) -> f k v) (to_sorted_list t)
let fold f t init = List.fold_left (fun acc (k, v) -> f k v acc) init (to_sorted_list t)
let keys t = List.map fst (to_sorted_list t)
