(* The versioned store against a model of committed history.

   A random sequence drives one store the way a storage server does: commits
   whose writes are clipped to the ranges the server applies, shard moves
   (drop, begin, install of a snapshot), durability passes, rollbacks and
   reboots. After every step, every key whose data the server holds must
   read, at every version the store admits, exactly what was committed. *)

open Fdb_sim
open Future.Syntax
module Mutation = Fdb_kv.Mutation
module Vs = Fdb_core.Versioned_store

let keys = [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ]
let bounds = Array.of_list (keys @ [ "h" ])

(* Two ranges share a start key, and a third overlaps the first. *)
let ranges = [| ("b", "f"); ("b", "d"); ("e", "h") |]

type op =
  | Write of Mutation.t
  | Drop of int
  | Begin of int
  | Install of int * int (* range, pick of the snapshot version *)
  | Durable of int (* lag behind the latest version *)
  | Rollback of int (* pick of the version to keep *)
  | Reboot

let show_op = function
  | Write (Mutation.Set (k, v)) -> Printf.sprintf "set %s=%s" k v
  | Write (Mutation.Clear k) -> Printf.sprintf "clear %s" k
  | Write (Mutation.Clear_range (a, b)) -> Printf.sprintf "clear [%s,%s)" a b
  | Write (Mutation.Atomic _) -> "atomic"
  | Drop r -> Printf.sprintf "drop %d" r
  | Begin r -> Printf.sprintf "begin %d" r
  | Install (r, p) -> Printf.sprintf "install %d@%d" r p
  | Durable l -> Printf.sprintf "durable -%d" l
  | Rollback p -> Printf.sprintf "rollback %d" p
  | Reboot -> "reboot"

let gen_op =
  let open QCheck.Gen in
  let key = oneofl keys in
  frequency
    [
      (6, map2 (fun k v -> Write (Mutation.Set (k, string_of_int v))) key (int_bound 9));
      (2, map (fun k -> Write (Mutation.Clear k)) key);
      ( 2,
        map2
          (fun i j -> Write (Mutation.Clear_range (bounds.(min i j), bounds.(max i j))))
          (int_bound 7) (int_bound 7) );
      (2, map (fun r -> Drop r) (int_bound 2));
      (3, map (fun r -> Begin r) (int_bound 2));
      (4, map2 (fun r p -> Install (r, p)) (int_bound 2) nat);
      (2, map (fun l -> Durable l) (int_bound 6));
      (1, map (fun p -> Rollback p) nat);
      (1, return Reboot);
    ]

(* Each range starts served or off; key "a" is always served. *)
let arb_case =
  QCheck.make
    ~print:(fun (served, ops) ->
      Printf.sprintf "served=[%s] %s"
        (String.concat ";" (List.map string_of_bool served))
        (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(pair (list_repeat 3 bool) (list_size (int_range 1 60) gen_op))

type status = Off | Moving of int64 (* applying since *) | Served

type model = {
  status : status array;
  mutable history : (int64 * Mutation.t) list; (* committed, newest first *)
  mutable applied : (int64 * Mutation.t) list; (* what the store applied, newest first *)
  mutable valid : string list; (* keys the store holds all data of *)
  mutable latest : int64;
  mutable last_install : int64;
}

let touches key = function
  | Mutation.Set (k, _) | Mutation.Clear k | Mutation.Atomic (_, k, _) -> k = key
  | Mutation.Clear_range (a, b) -> a <= key && key < b

(* The newest committed write of [key] in [\(lo, hi\]]. *)
let newest m ~lo ~hi key =
  List.find_opt (fun (v, mu) -> lo < v && v <= hi && touches key mu) m.history

let committed m version key =
  match newest m ~lo:Int64.min_int ~hi:version key with
  | Some (_, Mutation.Set (_, x)) -> Some x
  | _ -> None

(* The ranges the server applies, merged into disjoint segments. *)
let segments m =
  let live = ("a", "b") :: List.filteri (fun i _ -> m.status.(i) <> Off) (Array.to_list ranges) in
  List.fold_left
    (fun acc (lo, hi) ->
      match acc with
      | (l, h) :: rest when lo <= h -> (l, max h hi) :: rest
      | _ -> (lo, hi) :: acc)
    [] (List.sort compare live)
  |> List.rev

let applying m key = List.exists (fun (lo, hi) -> lo <= key && key < hi) (segments m)
let in_range r key = fst ranges.(r) <= key && key < snd ranges.(r)

(* The parts of a commit's write the server applies, as its shard filter
   clips them. *)
let clip m (mu : Mutation.t) =
  match mu with
  | Mutation.Clear_range (a, b) ->
      List.filter_map
        (fun (lo, hi) ->
          let f = max a lo and u = min b hi in
          if f < u then Some (Mutation.Clear_range (f, u)) else None)
        (segments m)
  | Mutation.Set (k, _) | Mutation.Clear k | Mutation.Atomic (_, k, _) ->
      if applying m k then [ mu ] else []

let apply s v mu = ignore (Vs.apply s v mu : Mutation.t)

(* A pick in [lo, hi]. *)
let pick p lo hi = Int64.add lo (Int64.rem (Int64.of_int p) (Int64.succ (Int64.sub hi lo)))

let step disk s m op =
  match op with
  | Write mu ->
      let v = Int64.succ m.latest in
      m.history <- (v, mu) :: m.history;
      List.iter
        (fun piece ->
          apply s v piece;
          m.applied <- (v, piece) :: m.applied)
        (clip m mu);
      m.latest <- v;
      Future.return s
  | Drop r ->
      m.status.(r) <- Off;
      m.valid <- List.filter (applying m) m.valid;
      Future.return s
  | Begin r ->
      if m.status.(r) = Off then m.status.(r) <- Moving m.latest;
      Future.return s
  | Install (r, p) -> (
      match m.status.(r) with
      (* A snapshot is never older than the image: installs are taken at or
         above the durable version and the previous install. *)
      | Moving vb when m.latest >= max (max vb m.last_install) (Vs.durable s) ->
          let since = pick p (max (max vb m.last_install) (Vs.durable s)) m.latest in
          let rows =
            List.filter_map
              (fun k ->
                if in_range r k then Option.map (fun x -> (k, x)) (committed m since k) else None)
              keys
          in
          let lo, hi = ranges.(r) in
          let* () = Vs.install s ~lo ~hi ~since rows in
          m.status.(r) <- Served;
          m.valid <- List.sort_uniq compare (List.filter (in_range r) keys @ m.valid);
          m.last_install <- max m.last_install since;
          Future.return s
      | _ -> Future.return s)
  | Durable lag ->
      let target = Int64.sub m.latest (Int64.of_int lag) in
      if target > Vs.durable s then Future.map (Vs.make_durable s target) (fun () -> s)
      else Future.return s
  | Rollback p ->
      let lo = max (Vs.durable s) m.last_install in
      if m.latest >= lo then begin
        let after = pick p lo m.latest in
        ignore (Vs.rollback s ~after : int);
        m.history <- List.filter (fun (v, _) -> v <= after) m.history;
        m.applied <- List.filter (fun (v, _) -> v <= after) m.applied;
        m.latest <- after;
        Array.iteri
          (fun i st -> match st with Moving vb -> m.status.(i) <- Moving (min vb after) | _ -> ())
          m.status
      end;
      Future.return s
  | Reboot ->
      Disk.crash disk;
      let* s = Vs.recover ~disk ~prefix:"ss0" in
      (* The logs replay the tag's stream above the durable version. *)
      List.iter (fun (v, mu) -> if v > Vs.durable s then apply s v mu) (List.rev m.applied);
      Future.return s

(* The lowest version the store admits for [\[from, until)]. *)
let admitted s ~from ~until = max (Vs.oldest s) (Vs.floor_over s ~from ~until)

(* The versions at which the committed state can change, from [lo] on. *)
let versions m lo = lo :: List.filter_map (fun (v, _) -> if v > lo then Some v else None) m.history

(* Drain [\[from, until)] with continuations under a row and byte budget. *)
let drain s v ~from ~until ~reverse ~limit ~byte_limit =
  let rec go from until acc =
    let rows, more = Vs.read_range s v ~from ~until ~reverse ~limit ~byte_limit in
    let acc = List.rev_append rows acc in
    match (more, List.rev rows) with
    | false, _ -> Some (List.rev acc)
    | true, (last, _) :: _ when List.length rows <= limit ->
        if reverse then go from last acc else go (last ^ "\x00") until acc
    | true, _ -> None
  in
  go from until []

(* Maximal runs of consecutive valid keys. *)
let runs m =
  List.fold_right
    (fun k acc ->
      match (List.mem k m.valid, acc) with
      | false, _ -> [] :: acc
      | true, run :: rest -> (k :: run) :: rest
      | true, [] -> [ [ k ] ])
    keys [ [] ]
  |> List.filter (fun run -> run <> [])

let consistent s m =
  let points =
    List.for_all
      (fun k ->
        let lo = admitted s ~from:k ~until:(k ^ "\x00") in
        List.for_all (fun v -> Vs.get s v k = committed m v k) (versions m lo)
        (* The window holds every write of a valid key above [lo]. *)
        && Vs.last_change s k = Option.map fst (newest m ~lo ~hi:Int64.max_int k))
      m.valid
  in
  let range run =
    let from = List.hd run and until = List.nth run (List.length run - 1) ^ "\x00" in
    let lo = admitted s ~from ~until in
    List.for_all
      (fun v ->
        let want = List.filter_map (fun k -> Option.map (fun x -> (k, x)) (committed m v k)) run in
        List.for_all
          (fun (limit, byte_limit) ->
            drain s v ~from ~until ~reverse:false ~limit ~byte_limit = Some want
            && drain s v ~from ~until ~reverse:true ~limit ~byte_limit = Some (List.rev want))
          [ (1, max_int); (2, max_int); (max_int, 3) ])
      (if lo <= m.latest then [ lo; m.latest ] else [])
  in
  points && List.for_all range (runs m)

let run_case (served, ops) =
  let disk = Disk.create () in
  Engine.run @@ fun () ->
  let* s = Vs.recover ~disk ~prefix:"ss0" in
  let status = Array.of_list (List.map (fun b -> if b then Served else Off) served) in
  let m = { status; history = []; applied = []; valid = []; latest = 0L; last_install = 0L } in
  m.valid <- List.filter (applying m) keys;
  let rec go s = function
    | [] -> Future.return true
    | op :: rest ->
        let* s = step disk s m op in
        if consistent s m then go s rest else Future.return false
  in
  go s ops

let qcheck_matches_model =
  QCheck.Test.make ~name:"reads match committed history" ~count:500 arb_case run_case

(* An atomic op reads its base at its own version: earlier ops of that
   version stack, and a popped base comes from the image. *)
let test_atomic_stacking () =
  let le i = String.init 8 (fun b -> Char.chr ((i lsr (8 * b)) land 0xff)) in
  let concrete =
    Engine.run @@ fun () ->
    let* s = Vs.recover ~disk:(Disk.create ()) ~prefix:"ss0" in
    apply s 1L (Mutation.Set ("k", le 5));
    apply s 1L (Mutation.Set ("c", "x"));
    let* () = Vs.make_durable s 1L in
    let add = Vs.apply s 2L (Mutation.Atomic (Mutation.Add, "k", le 3)) in
    let stacked = Vs.apply s 2L (Mutation.Atomic (Mutation.Add, "k", le 4)) in
    let cleared = Vs.apply s 2L (Mutation.Atomic (Mutation.Compare_and_clear, "c", "x")) in
    Future.return
      ([ add; stacked; cleared ], Vs.get s 1L "k", Vs.get s 2L "k", Vs.get s 2L "c")
  in
  let muts, before, after, c = concrete in
  Alcotest.(check bool) "materialized against the image, then stacked" true
    (muts = [ Mutation.Set ("k", le 8); Mutation.Set ("k", le 12); Mutation.Clear "c" ]);
  Alcotest.(check (option string)) "the image below" (Some (le 5)) before;
  Alcotest.(check (option string)) "both adds at v2" (Some (le 12)) after;
  Alcotest.(check (option string)) "compare-and-clear matched" None c

let suite =
  [
    Property.to_alcotest qcheck_matches_model;
    Alcotest.test_case "atomic ops stack within a version" `Quick test_atomic_stacking;
  ]
