open Artemis

let check = Alcotest.(check int)

let test_constructors () =
  check "ms" 1_000 (Time.to_us (Time.of_ms 1));
  check "sec" 1_000_000 (Time.to_us (Time.of_sec 1));
  check "min" 60_000_000 (Time.to_us (Time.of_min 1));
  check "sec_f rounds" 1_500_000 (Time.to_us (Time.of_sec_f 1.5));
  check "sec_f rounds to nearest us" 1 (Time.to_us (Time.of_sec_f 1.4e-6))

let test_arithmetic () =
  let a = Time.of_ms 5 and b = Time.of_ms 3 in
  Alcotest.check Helpers.time "add" (Time.of_ms 8) (Time.add a b);
  Alcotest.check Helpers.time "sub" (Time.of_ms 2) (Time.sub a b);
  Alcotest.check Helpers.time "scale" (Time.of_ms 15) (Time.scale a 3);
  Alcotest.check Helpers.time "divide" (Time.of_us 2_500) (Time.divide a 2);
  Alcotest.(check bool) "negative" true (Time.is_negative (Time.sub b a))

let test_comparisons () =
  let a = Time.of_ms 1 and b = Time.of_ms 2 in
  Alcotest.(check bool) "lt" true Time.(a < b);
  Alcotest.(check bool) "le refl" true Time.(a <= a);
  Alcotest.(check bool) "gt" true Time.(b > a);
  Alcotest.check Helpers.time "min" a (Time.min a b);
  Alcotest.check Helpers.time "max" b (Time.max a b)

let test_literal () =
  Alcotest.(check string) "min unit" "5min" (Time.to_literal (Time.of_min 5));
  Alcotest.(check string) "s unit" "90s" (Time.to_literal (Time.of_sec 90));
  Alcotest.(check string) "ms unit" "100ms" (Time.to_literal (Time.of_ms 100));
  Alcotest.(check string) "us unit" "1500us" (Time.to_literal (Time.of_us 1_500));
  Alcotest.(check string) "zero" "0us" (Time.to_literal Time.zero)

let test_pp_units () =
  let render t = Format.asprintf "%a" Time.pp t in
  Alcotest.(check string) "us" "42us" (render (Time.of_us 42));
  Alcotest.(check string) "ms" "1.50ms" (render (Time.of_us 1_500));
  Alcotest.(check string) "s" "2.50s" (render (Time.of_ms 2_500));
  Alcotest.(check string) "min" "2.00min" (render (Time.of_min 2))

(* The rendering every trace digest hashes, as it was written with
   Format: the renderer must reproduce it byte for byte. *)
let reference t =
  let us = Time.to_us t in
  let abs = Stdlib.abs us in
  if abs < 1_000 then Format.asprintf "%dus" us
  else if abs < 1_000_000 then Format.asprintf "%.2fms" (Time.to_ms_f t)
  else if abs < 60_000_000 then Format.asprintf "%.2fs" (Time.to_sec_f t)
  else Format.asprintf "%.2fmin" (Time.to_min_f t)

let test_render_boundaries () =
  List.iter
    (fun us ->
      List.iter
        (fun us ->
          let t = Time.of_us us in
          Alcotest.(check string) (string_of_int us) (reference t)
            (Time.to_string t))
        [ us; -us ])
    [ 0; 999; 1_000; 999_999; 1_000_000; 59_999_999; 60_000_000 ];
  (* %.2f rounds the double's binary value, not the decimal one *)
  List.iter
    (fun (us, text) ->
      Alcotest.(check string) (string_of_int us) text
        (Time.to_string (Time.of_us us)))
    [
      (999, "999us"); (1_000, "1.00ms"); (-1_000, "-1.00ms");
      (1_005, "1.00ms"); (1_125, "1.12ms"); (1_375, "1.38ms");
      (1_995, "2.00ms"); (999_995, "1000.00ms"); (999_999, "1000.00ms");
      (1_000_000, "1.00s"); (59_999_999, "60.00s"); (60_000_000, "1.00min");
    ];
  let buf = Buffer.create 8 in
  Time.render buf (Time.of_ms 2_500);
  Alcotest.(check string) "render appends to_string's text" "2.50s"
    (Buffer.contents buf)

let render_matches_reference =
  QCheck.Test.make ~name:"to_string = the Format rendering" ~count:2000
    (* every unit gets its share of draws, up to +-10^10 us *)
    QCheck.(
      map Time.of_us
        (oneof
           (List.map
              (fun b -> int_range (-b) b)
              [ 1_000; 1_000_000; 60_000_000; 10_000_000_000 ])))
    (fun t -> String.equal (Time.to_string t) (reference t))

(* Every decimal midpoint of the hundredths in each unit, up to the
   360-min horizon: 99,900 in ms, 5,900 in s and 35,900 in min.  These
   are the values integer rounding cannot decide alone, so each is
   checked against %.2f of the same double. *)
let test_render_midpoints () =
  let bad = ref [] in
  let sweep ~q ~lo ~hi to_f unit =
    let k = ref (lo / q) in
    while (!k * q) + (q / 2) < hi do
      let t = Time.of_us ((!k * q) + (q / 2)) in
      let want = Printf.sprintf "%.2f%s" (to_f t) unit in
      if not (String.equal (Time.to_string t) want) then bad := want :: !bad;
      incr k
    done
  in
  sweep ~q:10 ~lo:1_000 ~hi:1_000_000 Time.to_ms_f "ms";
  sweep ~q:10_000 ~lo:1_000_000 ~hi:60_000_000 Time.to_sec_f "s";
  sweep ~q:600_000 ~lo:60_000_000 ~hi:(360 * 60_000_000) Time.to_min_f "min";
  Alcotest.(check (list string)) "midpoints that differ from %.2f" [] !bad

(* The ends of the int range, where |t| overflows or passes 2^53 and
   the renderer hands the double to the C formatter. *)
let extremes =
  let p53 = 1 lsl 53 in
  List.concat_map
    (fun v -> [ v; -v ])
    [ max_int; p53; p53 - 1; p53 + 1; 0; 1; 9; 10; 999; 1_000 ]
  @ [ min_int; min_int + 1 ]

let test_render_extremes () =
  List.iter
    (fun us ->
      let t = Time.of_us us in
      Alcotest.(check string) (string_of_int us) (reference t)
        (Time.to_string t);
      let buf = Buffer.create 8 in
      Json.add_int buf us;
      Alcotest.(check string) ("add_int " ^ string_of_int us)
        (Int.to_string us) (Buffer.contents buf))
    extremes

let render_matches_whole_range =
  QCheck.Test.make ~name:"to_string = %.2f over the whole int range"
    ~count:2000
    QCheck.(
      map Time.of_us
        (oneof [ int; int_range (-(1 lsl 55)) (1 lsl 55) ]))
    (fun t -> String.equal (Time.to_string t) (reference t))

let literal_roundtrip =
  QCheck.Test.make ~name:"to_literal scans back to the same value"
    ~count:500
    QCheck.(map Time.of_us (int_bound 10_000_000_000))
    (fun t ->
      match
        Artemis_util.Scanner.tokenize ~puncts:[] (Time.to_literal t)
      with
      | [ { token = Artemis_util.Scanner.Duration d; _ }; _ ] -> Time.equal d t
      | _ -> false)

let suite =
  [
    Alcotest.test_case "constructors" `Quick test_constructors;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "exact literals" `Quick test_literal;
    Alcotest.test_case "pp adaptive units" `Quick test_pp_units;
    Alcotest.test_case "render: unit boundaries and rounding" `Quick
      test_render_boundaries;
    Alcotest.test_case "render: every decimal midpoint" `Quick
      test_render_midpoints;
    Alcotest.test_case "render: int extremes and the appender" `Quick
      test_render_extremes;
    QCheck_alcotest.to_alcotest render_matches_reference;
    QCheck_alcotest.to_alcotest render_matches_whole_range;
    QCheck_alcotest.to_alcotest literal_roundtrip;
  ]
