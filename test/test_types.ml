open Fdb_core

let test_next_key () =
  Alcotest.(check string) "appends nul" "abc\x00" (Types.next_key "abc");
  Alcotest.(check bool) "strictly greater" true (Types.next_key "abc" > "abc");
  Alcotest.(check bool) "tight bound" true ("abc\x00" >= Types.next_key "abc")

let test_strinc () =
  Alcotest.(check string) "simple" "abd" (Types.strinc "abc");
  Alcotest.(check string) "trailing 0xff truncated" "ac" (Types.strinc "ab\xff");
  Alcotest.(check string) "multiple 0xff" "b" (Types.strinc "a\xff\xff");
  Alcotest.check_raises "all 0xff rejected"
    (Invalid_argument "Types.strinc: key has no incrementable byte") (fun () ->
      ignore (Types.strinc "\xff\xff"))

let test_strinc_covers_prefix () =
  let prefix = "user/1" in
  let lo, hi = Types.range_of_prefix prefix in
  Alcotest.(check bool) "prefix itself inside" true (lo <= prefix && prefix < hi);
  Alcotest.(check bool) "extension inside" true (lo <= prefix ^ "zzz" && prefix ^ "zzz" < hi);
  Alcotest.(check bool) "sibling outside" false (lo <= "user/2" && "user/2" < hi)

let test_version_bytes_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check int64) "roundtrip" v (Types.version_of_bytes (Types.version_to_bytes v)))
    [ 0L; 1L; 255L; 65_536L; 1_000_000_000_000L; Int64.max_int ]

let test_version_bytes_order () =
  (* big-endian: byte order equals numeric order (versionstamp contract) *)
  let vs = [ 0L; 1L; 255L; 256L; 1_000_000L; 17_378_188L; Int64.max_int ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool) "order preserved" (a < b)
            (Types.version_to_bytes a < Types.version_to_bytes b))
        vs)
    vs

let qcheck_strinc_bound =
  QCheck.Test.make ~name:"strinc is a tight exclusive prefix bound" ~count:300
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 12)) small_string)
    (fun (prefix, suffix) ->
      QCheck.assume (String.exists (fun c -> c <> '\xff') prefix);
      let hi = Types.strinc prefix in
      prefix ^ suffix < hi && prefix < hi)

let suite =
  [
    Alcotest.test_case "next_key" `Quick test_next_key;
    Alcotest.test_case "strinc" `Quick test_strinc;
    Alcotest.test_case "strinc covers prefix" `Quick test_strinc_covers_prefix;
    Alcotest.test_case "version bytes roundtrip" `Quick test_version_bytes_roundtrip;
    Alcotest.test_case "version bytes order" `Quick test_version_bytes_order;
    Property.to_alcotest qcheck_strinc_bound;
  ]
