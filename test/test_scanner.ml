module Scanner = Artemis_util.Scanner
open Artemis

let tokens src =
  List.map
    (fun (l : Scanner.located) -> l.Scanner.token)
    (Scanner.tokenize ~puncts:[ "{"; "}"; ":"; ";"; "->"; "-"; ":="; "=" ] src)

let tok = Alcotest.testable Scanner.pp_token ( = )

let test_idents_and_numbers () =
  Alcotest.(check (list tok))
    "mixed"
    [
      Scanner.Ident "foo";
      Scanner.Int 42;
      Scanner.Float 3.5;
      Scanner.Ident "_x1";
      Scanner.Eof;
    ]
    (tokens "foo 42 3.5 _x1")

let test_durations () =
  Alcotest.(check (list tok))
    "all units"
    [
      Scanner.Duration (Time.of_us 10);
      Scanner.Duration (Time.of_ms 100);
      Scanner.Duration (Time.of_sec 3);
      Scanner.Duration (Time.of_sec 2);
      Scanner.Duration (Time.of_min 5);
      Scanner.Duration (Time.of_sec_f 1.5);
      Scanner.Eof;
    ]
    (tokens "10us 100ms 3s 2sec 5min 1.5s")

let test_energy_literals () =
  Alcotest.(check (list tok))
    "energy units"
    [ Scanner.Energy 500.; Scanner.Energy 3_400.; Scanner.Energy 2_000_000.; Scanner.Eof ]
    (tokens "500uJ 3.4mJ 2J")

let test_punct_longest_match () =
  Alcotest.(check (list tok))
    "-> beats -"
    [ Scanner.Punct "->"; Scanner.Punct "-"; Scanner.Punct ":="; Scanner.Punct ":"; Scanner.Eof ]
    (tokens "-> - := :")

let test_comments_and_layout () =
  Alcotest.(check (list tok))
    "comment skipped"
    [ Scanner.Ident "a"; Scanner.Ident "b"; Scanner.Eof ]
    (tokens "a // a comment with 1 2 3\n  b")

let test_error_position () =
  match Scanner.tokenize ~puncts:[] "ab\n  @" with
  | exception Scanner.Lex_error (_, 2, 3) -> ()
  | exception Scanner.Lex_error (_, l, c) ->
      Alcotest.failf "wrong position %d:%d" l c
  | _ -> Alcotest.fail "expected a lex error"

let test_unknown_unit () =
  match Scanner.tokenize ~puncts:[] "3parsec" with
  | exception Scanner.Lex_error (msg, 1, 1) ->
      Alcotest.(check string) "message" "unknown unit \"parsec\"" msg
  | exception Scanner.Lex_error (_, l, c) ->
      Alcotest.failf "wrong position %d:%d" l c
  | _ -> Alcotest.fail "expected a lex error"

(* the parsers' cursor: a token list without its [Eof] runs dry as a
   parse error located at the last consumed token *)
let test_cursor_truncated () =
  let s =
    Scanner.stream
      (List.filter
         (fun (l : Scanner.located) -> l.Scanner.token <> Scanner.Eof)
         (Scanner.tokenize ~puncts:[] "a\n  b"))
  in
  Alcotest.(check string) "first" "a" (Scanner.expect_ident s);
  Alcotest.(check string) "second" "b" (Scanner.expect_ident s);
  Alcotest.check_raises "dry"
    (Scanner.Parse_error ("unexpected end of input", 2, 3))
    (fun () -> ignore (Scanner.peek s))

let suite =
  [
    Alcotest.test_case "idents and numbers" `Quick test_idents_and_numbers;
    Alcotest.test_case "duration literals" `Quick test_durations;
    Alcotest.test_case "energy literals" `Quick test_energy_literals;
    Alcotest.test_case "longest punct wins" `Quick test_punct_longest_match;
    Alcotest.test_case "comments" `Quick test_comments_and_layout;
    Alcotest.test_case "error position" `Quick test_error_position;
    Alcotest.test_case "unknown duration unit" `Quick test_unknown_unit;
    Alcotest.test_case "cursor: truncated input is located" `Quick
      test_cursor_truncated;
  ]
