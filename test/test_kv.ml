open Fdb_kv
module Rng = Fdb_util.Det_rng

(* ---------- range-version-map reference model ----------

   The pre-augmentation implementation, re-expressed over a plain sorted
   assoc list: note_write / max_version / expire must stay byte-equivalent
   across the data-structure swap, including the coalescing done by expiry
   (resolver verdicts must not change). *)
module Rvm_ref = struct
  type t = { mutable entries : (string * int64) list; mutable oldest : int64 }

  let create () = { entries = [ ("", 0L) ]; oldest = 0L }

  let covering t k =
    List.fold_left
      (fun acc (key, v) -> if key <= k then v else acc)
      0L t.entries

  let note_write t ~from ~until version =
    if from < until then begin
      if not (List.mem_assoc until t.entries) then
        t.entries <-
          List.merge compare t.entries [ (until, covering t until) ];
      let prev = covering t from in
      let kept =
        List.filter (fun (k, _) -> k < from || k >= until) t.entries
      in
      t.entries <-
        List.merge compare kept
          [ (from, if version > prev then version else prev) ]
    end

  let max_version t ~from ~until =
    if from >= until then 0L
    else
      List.fold_left
        (fun best (k, v) -> if k >= from && k < until && v > best then v else best)
        (covering t from) t.entries

  let expire t ~before =
    if before > t.oldest then begin
      t.oldest <- before;
      match t.entries with
      | [] -> ()
      | first :: rest ->
          let prev_old = ref (snd first < before) in
          let kept =
            List.filter
              (fun (_, v) ->
                let old = v < before in
                let keep = not (old && !prev_old) in
                prev_old := old;
                keep)
              rest
          in
          t.entries <- first :: kept
    end
end

let qcheck_rvm_expire_model =
  (* note_write at monotonically increasing versions (the resolver's usage),
     interleaved with expiry at random floors and max_version probes. Ranges
     are letter spans, point ranges [k ^ "\000"], ranges from the root [""],
     and ranges that start or end on a boundary the history already holds. *)
  let op_gen =
    QCheck.Gen.(quad (int_range 0 5) (int_range 0 11) (int_range 0 11) (int_range 0 80))
  in
  QCheck.Test.make ~name:"range_version_map matches reference across expiry"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 80) op_gen))
    (fun ops ->
      let letter i = String.make 1 (Char.chr (Char.code 'a' + i)) in
      let m = Range_version_map.create ~rng:(Rng.create 31L) () in
      let r = Rvm_ref.create () in
      let version = ref 0L in
      let range a b x =
        let lo = letter (min a b) and hi = letter (max a b + 1) in
        match x mod 5 with
        | 0 | 1 -> (lo, hi)
        | 2 -> (letter a, letter a ^ "\000")
        | 3 -> ("", hi)
        | _ ->
            let entries = r.Rvm_ref.entries in
            let bound, _ = List.nth entries (x mod List.length entries) in
            if b mod 2 = 0 then (bound, hi) else (lo, bound)
      in
      List.iter
        (fun (op, a, b, x) ->
          (match op with
          | 0 | 1 | 2 ->
              version := Int64.add !version 1L;
              let from, until = range a b x in
              Range_version_map.note_write m ~from ~until !version;
              Rvm_ref.note_write r ~from ~until !version
          | 3 ->
              let floor = Int64.of_int x in
              Range_version_map.expire m ~before:floor;
              Rvm_ref.expire r ~before:floor
          | _ ->
              let from, until = range a b x in
              if
                Range_version_map.max_version m ~from ~until
                <> Rvm_ref.max_version r ~from ~until
              then failwith "max_version mismatch");
          if Range_version_map.entry_count m <> List.length r.Rvm_ref.entries then
            failwith "entry_count mismatch";
          if not (Range_version_map.check_invariants m) then
            failwith "annotation invariant broken")
        ops;
      (* Full sweep: every single-letter range plus the whole space. *)
      List.for_all
        (fun i ->
          let from = letter i and until = letter (i + 1) in
          Range_version_map.max_version m ~from ~until
          = Rvm_ref.max_version r ~from ~until)
        (List.init 12 Fun.id)
      && Range_version_map.max_version m ~from:"" ~until:"z"
         = Rvm_ref.max_version r ~from:"" ~until:"z")

let test_rvm_basic () =
  let m = Range_version_map.create ~rng:(Rng.create 3L) () in
  Alcotest.(check int64) "empty" 0L (Range_version_map.max_version m ~from:"a" ~until:"z");
  Range_version_map.note_write m ~from:"b" ~until:"d" 10L;
  Alcotest.(check int64) "inside" 10L (Range_version_map.max_version m ~from:"b" ~until:"c");
  Alcotest.(check int64) "overlap start" 10L
    (Range_version_map.max_version m ~from:"a" ~until:"b\x00");
  Alcotest.(check int64) "overlap end" 10L
    (Range_version_map.max_version m ~from:"c" ~until:"z");
  Alcotest.(check int64) "disjoint before" 0L
    (Range_version_map.max_version m ~from:"a" ~until:"b");
  Alcotest.(check int64) "disjoint after" 0L
    (Range_version_map.max_version m ~from:"d" ~until:"z")

let test_rvm_layering () =
  let m = Range_version_map.create ~rng:(Rng.create 3L) () in
  Range_version_map.note_write m ~from:"a" ~until:"m" 5L;
  Range_version_map.note_write m ~from:"c" ~until:"e" 9L;
  Alcotest.(check int64) "newer wins inside" 9L
    (Range_version_map.max_version m ~from:"c" ~until:"d");
  Alcotest.(check int64) "older outside" 5L
    (Range_version_map.max_version m ~from:"f" ~until:"g");
  Alcotest.(check int64) "max over both" 9L
    (Range_version_map.max_version m ~from:"a" ~until:"z")

let test_rvm_single_key () =
  let m = Range_version_map.create ~rng:(Rng.create 3L) () in
  Range_version_map.note_write m ~from:"k" ~until:"k\x00" 7L;
  Alcotest.(check int64) "the key" 7L
    (Range_version_map.max_version m ~from:"k" ~until:"k\x00");
  Alcotest.(check int64) "neighbor" 0L
    (Range_version_map.max_version m ~from:"k\x00" ~until:"l")

let test_rvm_expire () =
  let m = Range_version_map.create ~rng:(Rng.create 3L) () in
  for i = 0 to 49 do
    let k = Printf.sprintf "k%02d" i in
    Range_version_map.note_write m ~from:k ~until:(k ^ "\x00") (Int64.of_int (i + 1))
  done;
  let before_entries = Range_version_map.entry_count m in
  Range_version_map.expire m ~before:40L;
  Alcotest.(check bool) "coalesced" true (Range_version_map.entry_count m < before_entries);
  Alcotest.(check int64) "oldest raised" 40L (Range_version_map.oldest m);
  (* Conflicts with recent writes must survive expiry. *)
  Alcotest.(check int64) "recent survives" 45L
    (Range_version_map.max_version m ~from:"k44" ~until:"k44\x00")

let qcheck_rvm_model =
  (* Model: per-key last-write version over a tiny domain. *)
  QCheck.Test.make ~name:"range_version_map matches brute-force model" ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 60)
           (pair (int_range 0 9) (int_range 0 9))))
    (fun ranges ->
      (* Keys are single letters so lexicographic = index order. *)
      let letter i = String.make 1 (Char.chr (Char.code 'a' + i)) in
      let keys = List.init 10 letter in
      let m = Range_version_map.create ~rng:(Rng.create 17L) () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i (a, b) ->
          let lo = min a b and hi = max a b + 1 in
          let v = Int64.of_int (i + 1) in
          Range_version_map.note_write m ~from:(letter lo) ~until:(letter hi) v;
          List.iteri
            (fun ki k -> if ki >= lo && ki < hi then Hashtbl.replace model k v)
            keys)
        ranges;
      List.for_all
        (fun k ->
          let expected = Option.value (Hashtbl.find_opt model k) ~default:0L in
          let got = Range_version_map.max_version m ~from:k ~until:(k ^ "\x00") in
          got = expected)
        keys)

let suite =
  [
    Alcotest.test_case "range_version_map basic" `Quick test_rvm_basic;
    Alcotest.test_case "range_version_map layering" `Quick test_rvm_layering;
    Alcotest.test_case "range_version_map single key" `Quick test_rvm_single_key;
    Alcotest.test_case "range_version_map expire" `Quick test_rvm_expire;
    Property.to_alcotest qcheck_rvm_model;
    Property.to_alcotest qcheck_rvm_expire_model;
  ]
