module Rng = Fdb_util.Det_rng

(* Version-augmented skiplist (paper §2.4.2: the Resolver's [lastCommit]
   history is "a version augmented probabilistic SkipList" [56]).

   Classic Pugh skiplist with a sentinel head node of maximal height; level i
   links skip ~2^i nodes. On top of the forward pointers, every tower link
   carries the max and min "measure" (an int64 the caller extracts from the
   value, e.g. a commit version) over the sublist it skips. The annotations
   buy two O(log n) operations the resolver hot path needs:

   - [max_in_range]: the largest measure in [from, until) by summing skipped-
     link maxima along a greedy tallest-link descent (Algorithm 1's conflict
     test), instead of an O(k) level-0 scan;
   - [coalesce_below]: MVCC-window expiry. A node is coalescible under a
     floor iff its own measure AND its predecessor's are both below it, i.e.
     iff its "pair measure" max(measure prev, measure self) is below the
     floor. Links carry the min pair measure of the sublist they skip, so
     sublists holding nothing coalescible — including ones full of already-
     coalesced run heads — are skipped in one hop, and each expired run is
     spliced out in one bulk unlink. Expiry cost tracks the entries actually
     expiring, not the live history size. *)

type 'a node = {
  key : string;
  mutable value : 'a option; (* None only for the head sentinel *)
  forward : 'a node option array;
  (* Annotations over the skipped sublist (this, forward.(i)] — every node
     strictly after this one up to and including the link target. Neutral
     ([max_neutral]/[pairmin_neutral]) when forward.(i) is None. *)
  link_max : int64 array;
  link_pairmin : int64 array;
}

type 'a t = {
  rng : Rng.t;
  measure : 'a -> int64;
  head : 'a node;
  mutable level : int; (* highest level currently in use *)
  mutable length : int;
  mutable work : int; (* cumulative links traversed (cost accounting) *)
}

(* Tower height cap: 2^24 expected entries before towers stop growing. *)
let max_level = 24

let max_neutral = Int64.min_int
let pairmin_neutral = Int64.max_int

let mk_node ~key ~value height =
  {
    key;
    value;
    forward = Array.make height None;
    link_max = Array.make height max_neutral;
    link_pairmin = Array.make height pairmin_neutral;
  }

let create ?(measure = fun _ -> 0L) ~rng () =
  {
    rng;
    measure;
    head = mk_node ~key:"" ~value:None max_level;
    level = 1;
    length = 0;
    work = 0;
  }

let length t = t.length
let work t = t.work

let node_measure t n = match n.value with Some v -> t.measure v | None -> max_neutral

(* A node's measure as a coalescing predecessor. The head sentinel reads as
   +inf so the first real entry's pair measure is +inf: never coalescible. *)
let pred_measure t n = match n.value with Some v -> t.measure v | None -> pairmin_neutral

let random_level t =
  let lvl = ref 1 in
  while !lvl < max_level && Rng.bool t.rng do
    incr lvl
  done;
  !lvl

(* Walk down from the top level, returning the rightmost node < key at
   level 0, recording the predecessor at each level in [update]. *)
let find_predecessors t key update =
  let x = ref t.head in
  for i = t.level - 1 downto 0 do
    let continue = ref true in
    while !continue do
      t.work <- t.work + 1;
      match !x.forward.(i) with
      | Some next when next.key < key -> x := next
      | _ -> continue := false
    done;
    match update with Some u -> u.(i) <- !x | None -> ()
  done;
  !x

let find t key =
  let pred = find_predecessors t key None in
  match pred.forward.(0) with
  | Some n when n.key = key -> n.value
  | _ -> None

let find_less_equal t key =
  let pred = find_predecessors t key None in
  match pred.forward.(0) with
  | Some n when n.key = key -> (
      match n.value with Some v -> Some (n.key, v) | None -> None)
  | _ -> (
      (* pred is the greatest node with key < probe *)
      match pred.value with Some v -> Some (pred.key, v) | None -> None)

(* Rebuild the level-[i] annotation of [x]'s link from the (already fresh)
   level-(i-1) links it spans: the segment (x, y] at level i is the union of
   the level-(i-1) segments of x and of every chain node strictly before y.
   Expected O(1): a level-i link skips ~2 level-(i-1) links. *)
let recompute t x i =
  match x.forward.(i) with
  | None ->
      x.link_max.(i) <- max_neutral;
      x.link_pairmin.(i) <- pairmin_neutral
  | Some y ->
      if i = 0 then begin
        (* Level 0 skips exactly {y}, whose predecessor is x itself. *)
        let m = node_measure t y in
        let p = pred_measure t x in
        x.link_max.(0) <- m;
        x.link_pairmin.(0) <- (if p > m then p else m)
      end
      else begin
        let mx = ref max_neutral and mn = ref pairmin_neutral in
        let c = ref x in
        let continue = ref true in
        while !continue do
          t.work <- t.work + 1;
          if !c.link_max.(i - 1) > !mx then mx := !c.link_max.(i - 1);
          if !c.link_pairmin.(i - 1) < !mn then mn := !c.link_pairmin.(i - 1);
          match !c.forward.(i - 1) with
          | Some n when n != y -> c := n
          | _ -> continue := false
        done;
        x.link_max.(i) <- !mx;
        x.link_pairmin.(i) <- !mn
      end

(* Every link along the search path spans the changed sublist; rebuild the
   annotations bottom-up (level i reads level i-1). [touched] is the node
   inserted or updated in place: its own links are refreshed at each level
   too (its measure feeds its level-0 pair annotation) before any
   predecessor link that chains across them. *)
let refresh_path ?touched t update =
  for i = 0 to t.level - 1 do
    (match touched with
    | Some (n : 'a node) when i < Array.length n.forward -> recompute t n i
    | _ -> ());
    recompute t update.(i) i
  done

let insert t key value =
  let update = Array.make max_level t.head in
  let pred = find_predecessors t key (Some update) in
  match pred.forward.(0) with
  | Some n when n.key = key ->
      n.value <- Some value;
      (* The measure may have changed: refresh every link covering [n] and
         [n]'s own links (the successor's pair measure reads [n]). *)
      refresh_path ~touched:n t update
  | _ ->
      let lvl = random_level t in
      if lvl > t.level then begin
        for i = t.level to lvl - 1 do
          update.(i) <- t.head
        done;
        t.level <- lvl
      end;
      let node = mk_node ~key ~value:(Some value) lvl in
      for i = 0 to lvl - 1 do
        node.forward.(i) <- update.(i).forward.(i);
        update.(i).forward.(i) <- Some node
      done;
      t.length <- t.length + 1;
      refresh_path ~touched:node t update

let unlink t update (node : 'a node) =
  for i = 0 to Array.length node.forward - 1 do
    (match update.(i).forward.(i) with
    | Some n when n == node -> update.(i).forward.(i) <- node.forward.(i)
    | _ -> ());
    node.forward.(i) <- None
  done;
  t.length <- t.length - 1;
  while t.level > 1 && t.head.forward.(t.level - 1) = None do
    t.level <- t.level - 1
  done

let remove t key =
  let update = Array.make max_level t.head in
  let pred = find_predecessors t key (Some update) in
  match pred.forward.(0) with
  | Some n when n.key = key ->
      let lvls = t.level in
      unlink t update n;
      for i = 0 to lvls - 1 do
        recompute t update.(i) i
      done;
      true
  | _ -> false

let iter_range t ?from ?until f =
  let start =
    match from with
    | None -> t.head.forward.(0)
    | Some k ->
        let pred = find_predecessors t k None in
        pred.forward.(0)
  in
  let rec walk = function
    | None -> ()
    | Some n -> (
        match until with
        | Some u when n.key >= u -> ()
        | _ ->
            (match n.value with Some v -> f n.key v | None -> ());
            walk n.forward.(0))
  in
  walk start

let fold_range t ?from ?until f init =
  let acc = ref init in
  iter_range t ?from ?until (fun k v -> acc := f !acc k v);
  !acc

(* Bulk unlink of [from, until); [until = None] means to the end. One
   predecessor walk, one splice per level, then a bottom-up annotation
   refresh: O(log n + removed). *)
let remove_span t ~from ~until =
  let in_span k = match until with None -> true | Some u -> k < u in
  if not (in_span from) then 0
  else begin
    let update = Array.make max_level t.head in
    ignore (find_predecessors t from (Some update) : 'a node);
    let count = ref 0 in
    let c = ref update.(0).forward.(0) in
    let continue = ref true in
    while !continue do
      t.work <- t.work + 1;
      match !c with
      | Some n when in_span n.key ->
          incr count;
          c := n.forward.(0)
      | _ -> continue := false
    done;
    if !count = 0 then 0
    else begin
      let lvls = t.level in
      for i = 0 to lvls - 1 do
        let rec first_survivor = function
          | Some (n : 'a node) when in_span n.key ->
              t.work <- t.work + 1;
              first_survivor n.forward.(i)
          | other -> other
        in
        update.(i).forward.(i) <- first_survivor update.(i).forward.(i)
      done;
      t.length <- t.length - !count;
      while t.level > 1 && t.head.forward.(t.level - 1) = None do
        t.level <- t.level - 1
      done;
      for i = 0 to lvls - 1 do
        recompute t update.(i) i
      done;
      !count
    end
  end

let remove_range t ~from ~until = remove_span t ~from ~until:(Some until)

let max_in_range t ~from ~until =
  if from >= until then max_neutral
  else begin
    let pred = find_predecessors t from None in
    match pred.forward.(0) with
    | Some first when first.key < until ->
        (* Greedy tallest-link walk from the first in-range node: each jump
           stays < until and contributes its skipped sublist's max in O(1).
           Expected O(log n): levels escalate geometrically going right. *)
        let best = ref (node_measure t first) in
        let cur = ref first in
        let continue = ref true in
        while !continue do
          let stepped = ref false in
          let j = ref (Array.length !cur.forward - 1) in
          while (not !stepped) && !j >= 0 do
            t.work <- t.work + 1;
            (match !cur.forward.(!j) with
            | Some tgt when tgt.key < until ->
                if !cur.link_max.(!j) > !best then best := !cur.link_max.(!j);
                cur := tgt;
                stepped := true
            | _ -> ());
            decr j
          done;
          if not !stepped then continue := false
        done;
        !best
    | _ -> max_neutral
  end

(* Last node of the all-old run starting at [n]: repeatedly take the tallest
   link whose skipped sublist is entirely below the floor. *)
let run_end t floor n =
  let cur = ref n in
  let continue = ref true in
  while !continue do
    let stepped = ref false in
    let j = ref (Array.length !cur.forward - 1) in
    while (not !stepped) && !j >= 0 do
      t.work <- t.work + 1;
      (match !cur.forward.(!j) with
      | Some tgt when !cur.link_max.(!j) < floor ->
          cur := tgt;
          stepped := true
      | _ -> ());
      decr j
    done;
    if not !stepped then continue := false
  done;
  !cur

let coalesce_below t floor =
  let removed = ref 0 in
  (* A node is coalescible iff its pair measure (max of its own and its
     predecessor's) is below the floor. From the current node, hop over the
     tallest link whose skipped sublist holds nothing coalescible
     (pairmin >= floor); otherwise the level-0 successor is coalescible —
     splice out the whole all-old run it starts in one bulk unlink. The walk
     descends only toward entries actually expiring: sublists that are fully
     coalesced already (old run heads fenced by live entries) are flown over. *)
  let rec walk (n : 'a node) =
    t.work <- t.work + 1;
    let dest = ref None in
    let found = ref false in
    let j = ref (Array.length n.forward - 1) in
    while (not !found) && !j >= 0 do
      t.work <- t.work + 1;
      (match n.forward.(!j) with
      | Some tgt when n.link_pairmin.(!j) >= floor ->
          dest := Some tgt;
          found := true
      | _ -> ());
      decr j
    done;
    match !dest with
    | Some tgt -> walk tgt
    | None -> (
        (* No hop: either at the end, or forward.(0) is coalescible. *)
        match n.forward.(0) with
        | None -> ()
        | Some y ->
            (* [y .. run_end] are all below the floor, and y's predecessor
               too: the whole run goes at once. *)
            let e = run_end t floor y in
            let survivor = e.forward.(0) in
            let until = match survivor with Some s -> Some s.key | None -> None in
            removed := !removed + remove_span t ~from:y.key ~until;
            (match survivor with Some _ -> walk n | None -> ()))
  in
  walk t.head;
  !removed

let to_list t = List.rev (fold_range t (fun acc k v -> (k, v) :: acc) [])

let check_invariants t =
  let ok = ref true in
  (* strictly increasing keys at every level *)
  for i = 0 to t.level - 1 do
    let rec walk prev = function
      | None -> ()
      | Some n ->
          if prev >= n.key then ok := false;
          walk n.key n.forward.(i)
    in
    match t.head.forward.(i) with
    | None -> ()
    | Some first -> walk first.key first.forward.(i)
  done;
  (* length consistent *)
  let count = fold_range t (fun acc _ _ -> acc + 1) 0 in
  if count <> t.length then ok := false;
  (* every link annotation equals a level-0 recomputation of its sublist *)
  for i = 0 to t.level - 1 do
    let rec seg (x : 'a node) =
      match x.forward.(i) with
      | None ->
          if x.link_max.(i) <> max_neutral || x.link_pairmin.(i) <> pairmin_neutral
          then ok := false
      | Some y ->
          let mx = ref max_neutral and mn = ref pairmin_neutral in
          let c = ref x in
          (try
             while !c != y do
               match !c.forward.(0) with
               | None ->
                   ok := false;
                   raise Exit
               | Some n ->
                   let m = node_measure t n in
                   let p = pred_measure t !c in
                   let pair = if p > m then p else m in
                   if m > !mx then mx := m;
                   if pair < !mn then mn := pair;
                   c := n
             done
           with Exit -> ());
          if x.link_max.(i) <> !mx || x.link_pairmin.(i) <> !mn then ok := false;
          seg y
    in
    seg t.head
  done;
  !ok
