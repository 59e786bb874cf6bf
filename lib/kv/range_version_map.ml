module Rng = Fdb_util.Det_rng

(* The Resolver's [lastCommit] history (paper §2.4.2: "a version augmented
   probabilistic SkipList" [56]).

   A Pugh skiplist of range-start entries whose head node is the root entry
   [""]; level i links skip ~2^i nodes and end at a per-map tail sentinel.
   Versions are native ints (commit versions stay far below 2^62), so every
   annotation store is unboxed. Each tower link carries two aggregates over
   the sublist it skips:

   - [lmax]: the largest version — [max_version] sums skipped-link maxima
     along a greedy tallest-link walk (Algorithm 1's conflict test) instead
     of an O(k) level-0 scan;
   - [lpair]: the smallest "pair version" max(ver prev, ver self). A node is
     coalescible under an expiry floor iff its pair version is below it
     (it and its predecessor both left the window), so sublists holding
     nothing coalescible — including ones full of already-coalesced run
     heads — are flown over in one hop, and each expired run is spliced out
     in one bulk unlink. Expiry cost tracks the entries actually expiring.

   The head is the root entry, so it is never coalescible itself: the walk
   only ever removes its successors. *)

type node = {
  key : string;
  mutable ver : int;
  next : node array;
  (* Aggregates over the skipped sublist (this, next.(i)] — every node after
     this one up to and including the link target. Neutral ([max_neutral]/
     [pair_neutral]) when next.(i) is the tail. *)
  lmax : int array;
  lpair : int array;
}

type t = {
  rng : Rng.t;
  head : node; (* the root entry [""] *)
  tail : node; (* end-of-list sentinel: never dereferenced *)
  upd : node array; (* predecessor buffer every operation reuses *)
  mutable level : int; (* highest level currently in use *)
  mutable length : int; (* entries, the root included *)
  mutable work : int; (* cumulative links traversed (cost accounting) *)
  mutable oldest : int64;
}

(* Tower height cap: 2^24 expected entries before towers stop growing. *)
let max_level = 24

let max_neutral = min_int
let pair_neutral = max_int

let create ~rng () =
  let tail = { key = ""; ver = 0; next = [||]; lmax = [||]; lpair = [||] } in
  let head =
    {
      key = "";
      ver = 0;
      next = Array.make max_level tail;
      lmax = Array.make max_level max_neutral;
      lpair = Array.make max_level pair_neutral;
    }
  in
  {
    rng;
    head;
    tail;
    upd = Array.make max_level head;
    level = 1;
    length = 1;
    work = 0;
    oldest = 0L;
  }

let oldest t = t.oldest
let entry_count t = t.length
let work t = t.work

(* Levels of [x] in use: the head's tower is taller than [t.level]. *)
let height t x =
  let h = Array.length x.next in
  if h < t.level then h else t.level

(* Walk down from the top level to the rightmost node with key < [key] (the
   head counts as below every key), recording each level's predecessor in
   [t.upd]. *)
let descend t key =
  let x = ref t.head in
  for i = t.level - 1 downto 0 do
    let continue = ref true in
    while !continue do
      t.work <- t.work + 1;
      let n = !x.next.(i) in
      if n != t.tail && n.key < key then x := n else continue := false
    done;
    t.upd.(i) <- !x
  done;
  !x

(* A fresh node with a random tower. Levels it opens get the head as their
   predecessor in [t.upd]. *)
let new_node t key ver =
  let h = ref 1 in
  while !h < max_level && Rng.bool t.rng do
    incr h
  done;
  for i = t.level to !h - 1 do
    t.upd.(i) <- t.head
  done;
  if !h > t.level then t.level <- !h;
  t.length <- t.length + 1;
  {
    key;
    ver;
    next = Array.make !h t.tail;
    lmax = Array.make !h max_neutral;
    lpair = Array.make !h pair_neutral;
  }

(* First node from [n] on level [i] that is [stop] or past its key. *)
let rec skip t i n stop =
  if n == stop || n == t.tail || (stop != t.tail && n.key >= stop.key) then n
  else begin
    t.work <- t.work + 1;
    skip t i n.next.(i) stop
  end

(* Rebuild the level-[i] aggregates of [x]'s link from the (already fresh)
   level-(i-1) links it spans. Expected O(1): a level-i link skips ~2
   level-(i-1) links. *)
let recompute t x i =
  let y = x.next.(i) in
  if y == t.tail then begin
    x.lmax.(i) <- max_neutral;
    x.lpair.(i) <- pair_neutral
  end
  else if i = 0 then begin
    (* Level 0 skips exactly {y}, whose predecessor is x itself. *)
    x.lmax.(0) <- y.ver;
    x.lpair.(0) <- (if x.ver > y.ver then x.ver else y.ver)
  end
  else begin
    let mx = ref max_neutral and mn = ref pair_neutral in
    let c = ref x in
    while !c != y do
      t.work <- t.work + 1;
      if !c.lmax.(i - 1) > !mx then mx := !c.lmax.(i - 1);
      if !c.lpair.(i - 1) < !mn then mn := !c.lpair.(i - 1);
      c := !c.next.(i - 1)
    done;
    x.lmax.(i) <- !mx;
    x.lpair.(i) <- !mn
  end

let lower_level t =
  while t.level > 1 && t.head.next.(t.level - 1) == t.tail do
    t.level <- t.level - 1
  done

let note_write t ~from ~until version =
  if from < until then begin
    let p = descend t from in
    (* Level 0 from [p] to [until]: [c] ends on the last node below
       [until] (whose version covers [until]), [stop] on the first one at or
       past it. *)
    let c = ref p and inside = ref 0 in
    while
      let n = !c.next.(0) in
      n != t.tail && n.key < until
    do
      t.work <- t.work + 1;
      c := !c.next.(0);
      incr inside
    done;
    let until_ver = !c.ver and stop = !c.next.(0) in
    let f =
      if from = "" then t.head
      else if p.next.(0) != t.tail && p.next.(0).key = from then p.next.(0)
      else t.tail
    in
    let prev = if f == t.tail then p.ver else f.ver in
    let v = Int64.to_int version in
    let v = if v > prev then v else prev in
    (* Splice out every entry inside the range but [f]. *)
    let fh = if f == t.tail then 0 else Array.length f.next in
    for i = 0 to t.level - 1 do
      let a = if i < fh then f else t.upd.(i) in
      a.next.(i) <- skip t i a.next.(i) stop
    done;
    let removed = if f == t.tail || f == t.head then !inside else !inside - 1 in
    t.length <- t.length - removed;
    let f =
      if f != t.tail then begin
        f.ver <- v;
        f
      end
      else begin
        let n = new_node t from v in
        for i = 0 to Array.length n.next - 1 do
          n.next.(i) <- t.upd.(i).next.(i);
          t.upd.(i).next.(i) <- n
        done;
        n
      end
    in
    let fh = Array.length f.next in
    (* [until] keeps its cover version; below [f]'s height its predecessor
       is [f], above it [t.upd.(i)]. *)
    let u =
      if stop != t.tail && stop.key = until then t.tail
      else begin
        let n = new_node t until until_ver in
        for i = 0 to Array.length n.next - 1 do
          let a = if i < fh then f else t.upd.(i) in
          n.next.(i) <- a.next.(i);
          a.next.(i) <- n
        done;
        n
      end
    in
    let uh = if u == t.tail then 0 else Array.length u.next in
    for i = 0 to t.level - 1 do
      if i < uh then recompute t u i;
      if i < fh then recompute t f i;
      if t.upd.(i) != f then recompute t t.upd.(i) i
    done;
    lower_level t
  end

let max_version t ~from ~until =
  if from >= until then 0L
  else begin
    (* The cover entry at-or-before [from], then a greedy tallest-link walk:
       each jump stays below [until] and contributes its skipped sublist's
       max in O(1). Expected O(log n): levels escalate geometrically. *)
    let p = descend t from in
    let n = p.next.(0) in
    let cur = ref (if n != t.tail && n.key = from then n else p) in
    let best = ref !cur.ver in
    let continue = ref true in
    while !continue do
      let x = !cur in
      let j = ref (height t x - 1) in
      while !j >= 0 do
        t.work <- t.work + 1;
        let y = x.next.(!j) in
        if y != t.tail && y.key < until then begin
          if x.lmax.(!j) > !best then best := x.lmax.(!j);
          cur := y;
          j := -1
        end
        else decr j
      done;
      if !cur == x then continue := false
    done;
    Int64.of_int !best
  end

(* Unlink the run [y, stop) ([stop] may be the tail): one predecessor walk,
   one splice per level, then a bottom-up refresh. O(log n + removed). *)
let remove_span t y stop =
  ignore (descend t y.key : node);
  let c = ref y in
  while !c != stop do
    t.work <- t.work + 1;
    t.length <- t.length - 1;
    c := !c.next.(0)
  done;
  let lvls = t.level in
  for i = 0 to lvls - 1 do
    t.upd.(i).next.(i) <- skip t i t.upd.(i).next.(i) stop
  done;
  for i = 0 to lvls - 1 do
    recompute t t.upd.(i) i
  done;
  lower_level t

(* Last node of the all-old run starting at [n]: repeatedly take the tallest
   link whose skipped sublist is entirely below the floor. *)
let run_end t floor n =
  let cur = ref n in
  let continue = ref true in
  while !continue do
    let x = !cur in
    let j = ref (height t x - 1) in
    while !j >= 0 do
      t.work <- t.work + 1;
      let y = x.next.(!j) in
      if y != t.tail && x.lmax.(!j) < floor then begin
        cur := y;
        j := -1
      end
      else decr j
    done;
    if !cur == x then continue := false
  done;
  !cur

(* From the current node, hop over the tallest link whose skipped sublist
   holds nothing coalescible (pair version >= floor); otherwise the level-0
   successor is coalescible — splice out the whole all-old run it starts in
   one bulk unlink. Sublists that are fully coalesced already (old run heads
   fenced by live entries) are flown over. *)
let coalesce_below t floor =
  let rec walk x =
    t.work <- t.work + 1;
    let dest = ref t.tail in
    let j = ref (height t x - 1) in
    while !j >= 0 do
      t.work <- t.work + 1;
      let y = x.next.(!j) in
      if y != t.tail && x.lpair.(!j) >= floor then begin
        dest := y;
        j := -1
      end
      else decr j
    done;
    if !dest != t.tail then walk !dest
    else
      let y = x.next.(0) in
      if y != t.tail then begin
        (* [y .. run_end] are all below the floor, and y's predecessor
           too: the whole run goes at once. *)
        let stop = (run_end t floor y).next.(0) in
        remove_span t y stop;
        if stop != t.tail then walk x
      end
  in
  walk t.head

let expire t ~before =
  if before > t.oldest then begin
    t.oldest <- before;
    (* Runs of consecutive entries that are all below the floor are
       indistinguishable to any admissible (read_version >= floor)
       transaction: keep each run's first entry, drop the rest. *)
    coalesce_below t (Int64.to_int before)
  end

let check_invariants t =
  let ok = ref true in
  let count = ref 1 in
  (* strictly increasing keys at every level, the root first *)
  for i = 0 to t.level - 1 do
    let x = ref t.head in
    while !x.next.(i) != t.tail do
      let y = !x.next.(i) in
      if !x.key >= y.key then ok := false;
      if i = 0 then incr count;
      x := y
    done
  done;
  if !count <> t.length then ok := false;
  (* every link's aggregates equal a level-0 recomputation of its sublist *)
  for i = 0 to t.level - 1 do
    let x = ref t.head in
    while !x != t.tail do
      let y = !x.next.(i) in
      let mx = ref max_neutral and mn = ref pair_neutral in
      let c = ref !x in
      while y != t.tail && !c != y do
        let n = !c.next.(0) in
        if n == t.tail then begin
          ok := false;
          c := y
        end
        else begin
          if n.ver > !mx then mx := n.ver;
          let pair = if !c.ver > n.ver then !c.ver else n.ver in
          if pair < !mn then mn := pair;
          c := n
        end
      done;
      if !x.lmax.(i) <> !mx || !x.lpair.(i) <> !mn then ok := false;
      x := y
    done
  done;
  !ok
