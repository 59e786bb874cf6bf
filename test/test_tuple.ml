open Fdb_core
module T = Tuple

let sample =
  [
    [];
    [ T.Null ];
    [ T.Int 0L ];
    [ T.Int 1L ];
    [ T.Int (-1L) ];
    [ T.Int 255L ];
    [ T.Int 256L ];
    [ T.Int (-255L) ];
    [ T.Int (-256L) ];
    [ T.Int Int64.max_int ];
    [ T.Int Int64.min_int ];
    [ T.Bytes "" ];
    [ T.Bytes "a" ];
    [ T.Bytes "a\x00b" ];
    [ T.Bytes "a\xffb" ];
    [ T.String "hello" ];
    [ T.Float 0.0 ];
    [ T.Float (-0.0) ];
    [ T.Float 1.5 ];
    [ T.Float (-1.5) ];
    [ T.Float infinity ];
    [ T.Float neg_infinity ];
    [ T.Bool true ];
    [ T.Bool false ];
    [ T.Nested [] ];
    [ T.Nested [ T.Null ] ];
    [ T.Nested [ T.Int 7L; T.Bytes "x\x00" ] ];
    [ T.Int 42L; T.String "users"; T.Nested [ T.Bool true; T.Float 2.5 ] ];
  ]

let test_roundtrip () =
  List.iter
    (fun t ->
      let t' = T.unpack (T.pack t) in
      if T.compare_elements t t' <> 0 then
        Alcotest.failf "roundtrip mismatch: %a vs %a" T.pp t T.pp t')
    sample

let test_order_contract_samples () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let natural = T.compare_elements a b in
          let packed = compare (T.pack a) (T.pack b) in
          if (natural < 0) <> (packed < 0) || (natural = 0) <> (packed = 0) then
            Alcotest.failf "order mismatch between %a and %a (natural %d, packed %d)"
              T.pp a T.pp b natural packed)
        sample)
    sample

let test_range_contains_extensions () =
  let prefix = [ T.String "users"; T.Int 7L ] in
  let lo, hi = T.range prefix in
  let inside = T.pack (prefix @ [ T.String "email" ]) in
  let outside = T.pack [ T.String "users"; T.Int 8L ] in
  Alcotest.(check bool) "extension inside" true (lo <= inside && inside < hi);
  Alcotest.(check bool) "sibling outside" false (lo <= outside && outside < hi)

let test_subspace_prefix () =
  let sub = T.subspace [ T.String "app" ] [ T.Int 1L ] in
  let p = T.pack [ T.String "app" ] in
  Alcotest.(check string) "prefixed" p (String.sub sub 0 (String.length p))

let element_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let base =
        oneof
          [
            return T.Null;
            map (fun s -> T.Bytes s) (string_size (int_range 0 8));
            map (fun s -> T.String s) (string_size (int_range 0 8));
            map (fun i -> T.Int (Int64.of_int i)) int;
            map (fun i -> T.Int (Int64.of_int (-i))) nat;
            map (fun f -> T.Float f) (float_bound_inclusive 1e12);
            map (fun f -> T.Float (-.f)) (float_bound_inclusive 1e12);
            map (fun b -> T.Bool b) bool;
          ]
      in
      if n <= 1 then base
      else
        frequency
          [ (4, base); (1, map (fun l -> T.Nested l) (list_size (int_range 0 3) (self (n / 2)))) ])

let tuple_gen = QCheck.Gen.(list_size (int_range 0 5) element_gen)
let tuple_arb = QCheck.make ~print:(Format.asprintf "%a" T.pp) tuple_gen

let qcheck_roundtrip =
  QCheck.Test.make ~name:"tuple pack/unpack roundtrip" ~count:500 tuple_arb (fun t ->
      T.compare_elements t (T.unpack (T.pack t)) = 0)

let qcheck_order =
  QCheck.Test.make ~name:"tuple order preserved by pack" ~count:500
    (QCheck.pair tuple_arb tuple_arb) (fun (a, b) ->
      let natural = T.compare_elements a b in
      let packed = compare (T.pack a) (T.pack b) in
      (natural < 0) = (packed < 0) && (natural = 0) = (packed = 0))

(* Adversarial ordering property: int64 size-class boundaries, empty
   strings/bytes, and deep nesting — the places where length-prefixed or
   size-coded encodings typically diverge from natural tuple order. *)

let boundary_ints =
  let shifts = [ 8; 16; 24; 32; 40; 48; 56 ] in
  let around =
    List.concat_map
      (fun s ->
        let b = Int64.shift_left 1L s in
        [ Int64.sub b 1L; b; Int64.add b 1L; Int64.neg (Int64.sub b 1L);
          Int64.neg b; Int64.neg (Int64.add b 1L) ])
      shifts
  in
  [ 0L; 1L; -1L; Int64.max_int; Int64.min_int;
    Int64.add Int64.min_int 1L; Int64.sub Int64.max_int 1L ]
  @ around

let adversarial_element =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let base =
           oneof
             [
               return T.Null;
               return (T.Bytes "");
               return (T.String "");
               map (fun s -> T.Bytes s)
                 (string_size ~gen:(oneofl [ '\x00'; '\x01'; 'a'; '\xfe'; '\xff' ])
                    (int_range 0 4));
               map (fun s -> T.String s)
                 (string_size ~gen:(oneofl [ '\x00'; 'a'; '\xff' ]) (int_range 0 4));
               map (fun i -> T.Int i) (oneofl boundary_ints);
               map (fun i -> T.Int (Int64.of_int i)) (int_range (-1000) 1000);
               map (fun b -> T.Bool b) bool;
             ]
         in
         if n <= 1 then base
         else
           frequency
             [
               (3, base);
               (2, map (fun l -> T.Nested l) (list_size (int_range 0 3) (self (n / 2))));
             ])

let adversarial_tuple =
  QCheck.make
    ~print:(Format.asprintf "%a" T.pp)
    QCheck.Gen.(list_size (int_range 0 4) adversarial_element)

let qcheck_order_adversarial =
  QCheck.Test.make ~name:"tuple order at encoding boundaries" ~count:2000
    (QCheck.pair adversarial_tuple adversarial_tuple) (fun (a, b) ->
      let natural = T.compare_elements a b in
      let packed = compare (T.pack a) (T.pack b) in
      (natural < 0) = (packed < 0) && (natural = 0) = (packed = 0))

let test_boundary_ints_exhaustive () =
  let ts = List.map (fun i -> [ T.Int i ]) boundary_ints in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let natural = T.compare_elements a b in
          let packed = compare (T.pack a) (T.pack b) in
          if (natural < 0) <> (packed < 0) || (natural = 0) <> (packed = 0) then
            Alcotest.failf "int boundary order mismatch: %a vs %a" T.pp a T.pp b)
        ts)
    ts

let suite =
  [
    Alcotest.test_case "roundtrip samples" `Quick test_roundtrip;
    Alcotest.test_case "order contract samples" `Quick test_order_contract_samples;
    Alcotest.test_case "range contains extensions" `Quick test_range_contains_extensions;
    Alcotest.test_case "subspace prefix" `Quick test_subspace_prefix;
    Property.to_alcotest qcheck_roundtrip;
    Property.to_alcotest qcheck_order;
    Alcotest.test_case "int64 boundary order exhaustive" `Quick
      test_boundary_ints_exhaustive;
    Property.to_alcotest qcheck_order_adversarial;
  ]
