open Artemis
module Ast = Spec.Ast
module Parser = Spec.Parser
module Printer = Spec.Printer

let spec_t =
  Alcotest.testable
    (fun ppf spec -> Format.pp_print_string ppf (Printer.to_string spec))
    Ast.equal

let parse s =
  match Parser.parse s with
  | Ok spec -> spec
  | Error msg -> Alcotest.fail msg

let test_figure5_parses () =
  let spec = parse Health_app.spec_text in
  Alcotest.(check int) "four blocks" 4 (List.length spec);
  let send = List.find (fun b -> b.Ast.task = "send") spec in
  Alcotest.(check int) "four send properties" 4 (List.length send.Ast.properties);
  match send.Ast.properties with
  | Ast.Mitd { limit; dp_task; on_fail; max_attempt; path } :: _ ->
      Alcotest.check Helpers.time "5min" (Time.of_min 5) limit;
      Alcotest.(check string) "dpTask" "accel" dp_task;
      Alcotest.(check bool) "primary restartPath" true (on_fail = Ast.Restart_path);
      (match max_attempt with
      | Some { Ast.attempts = 3; exhausted = Ast.Skip_path } -> ()
      | _ -> Alcotest.fail "maxAttempt 3 / skipPath expected");
      Alcotest.(check (option int)) "Path 2" (Some 2) path
  | _ -> Alcotest.fail "MITD expected first"

let test_onfail_binding () =
  (* the onFail after maxAttempt binds to maxAttempt; the first onFail is
     the primary action (Figure 5, line 6 reading) *)
  let spec =
    parse "t: { MITD: 1min dpTask: u onFail: restartTask maxAttempt: 2 onFail: skipTask; }"
  in
  match (List.hd spec).Ast.properties with
  | [ Ast.Mitd { on_fail = Ast.Restart_task; max_attempt = Some { Ast.attempts = 2; exhausted = Ast.Skip_task }; _ } ] -> ()
  | _ -> Alcotest.fail "wrong clause binding"

let test_optional_colon_after_task () =
  let a = parse "calcAvg { collect: 10 dpTask: bodyTemp onFail: restartPath; }" in
  let b = parse "calcAvg: { collect: 10 dpTask: bodyTemp onFail: restartPath; }" in
  Alcotest.check spec_t "same" a b

let test_min_energy_property () =
  (* Section 4.2.2 extension: energy-awareness as a first-class property *)
  let spec = parse "accel: { minEnergy: 3.4mJ onFail: skipTask; }" in
  (match (List.hd spec).Ast.properties with
  | [ Ast.Min_energy { uj = 3_400.; on_fail = Ast.Skip_task; path = None } ] -> ()
  | _ -> Alcotest.fail "minEnergy parse");
  let spec2 = parse "tx: { minEnergy: 500uJ onFail: skipPath Path: 1; }" in
  match (List.hd spec2).Ast.properties with
  | [ Ast.Min_energy { uj = 500.; path = Some 1; _ } ] -> ()
  | _ -> Alcotest.fail "uJ unit parse"

let test_comments_ignored () =
  let spec = parse "// header\n t: { maxTries: 1 onFail: skipTask; // trailing\n }" in
  Alcotest.(check int) "one block" 1 (List.length spec)

let expect_error fragment src =
  match Parser.parse src with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" src
  | Error msg ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      if not (contains msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment

let test_errors () =
  expect_error "onFail" "t: { maxTries: 3; }";
  expect_error "dpTask" "t: { collect: 2 onFail: restartPath; }";
  expect_error "duration" "t: { maxDuration: 100 onFail: skipTask; }";
  expect_error "positive" "t: { maxTries: 0 onFail: skipTask; }";
  expect_error "Range" "t: { dpData: x onFail: skipTask; }";
  expect_error "unknown action" "t: { maxTries: 3 onFail: explode; }";
  expect_error "unknown property" "t: { maxFoo: 3 onFail: skipTask; }";
  expect_error "duplicate onFail"
    "t: { maxTries: 3 onFail: skipTask onFail: skipPath; }";
  expect_error "maxAttempt needs its own onFail"
    "t: { MITD: 1min dpTask: u onFail: restartPath maxAttempt: 2; }";
  expect_error "not allowed" "t: { maxTries: 3 onFail: skipTask Range: [1, 2]; }";
  expect_error "lower bound"
    "t: { dpData: x Range: [5, 2] onFail: skipTask; }";
  expect_error "energy" "t: { minEnergy: 100ms onFail: skipTask; }";
  expect_error "positive" "t: { minEnergy: 0uJ onFail: skipTask; }"

(* Regression: truncated or empty input must surface as a located
   [Error], never escape as [Assert_failure] or any other exception. *)
let test_truncated () =
  (match Parser.parse "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty input should parse to the empty spec"
  | Error msg -> Alcotest.failf "empty input should be Ok []: %s" msg);
  List.iter
    (expect_error "")
    [
      "send";
      "send:";
      "send: {";
      "send: { maxTries";
      "send: { maxTries:";
      "send: { maxTries: 3";
      "send: { maxTries: 3 onFail";
      "send: { maxTries: 3 onFail: skipTask";
      "send: { maxTries: 3 onFail: skipTask;";
      "t: { dpData: x Range: [1,";
    ]

(* --- round-trip property: parse (print spec) = spec --- *)

let gen_action =
  QCheck.Gen.oneofl
    [ Ast.Restart_path; Ast.Skip_path; Ast.Restart_task; Ast.Skip_task; Ast.Complete_path ]

let gen_duration =
  (* multiples of whole units so literals are exact *)
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Time.of_ms (n + 1)) (int_bound 5_000);
        map (fun n -> Time.of_sec (n + 1)) (int_bound 600);
        map (fun n -> Time.of_min (n + 1)) (int_bound 60);
      ])

let gen_ident =
  QCheck.Gen.(
    map
      (fun (c, rest) -> String.make 1 c ^ rest)
      (pair (char_range 'a' 'z') (string_size ~gen:(char_range 'a' 'z') (int_bound 6))))

let gen_path = QCheck.Gen.(opt (int_range 1 5))

let gen_max_attempt =
  QCheck.Gen.(
    opt (map (fun (attempts, exhausted) -> { Ast.attempts; exhausted })
           (pair (int_range 1 9) gen_action)))

let gen_property =
  let open QCheck.Gen in
  frequency
    [
      (1, map3 (fun n on_fail path -> Ast.Max_tries { n; on_fail; path })
           (int_range 1 20) gen_action gen_path);
      (1, map3 (fun limit on_fail path -> Ast.Max_duration { limit; on_fail; path })
           gen_duration gen_action gen_path);
      (1, map (fun (limit, dp_task, on_fail, (max_attempt, path)) ->
               Ast.Mitd { limit; dp_task; on_fail; max_attempt; path })
           (quad gen_duration gen_ident gen_action (pair gen_max_attempt gen_path)));
      (1, map (fun (n, dp_task, on_fail, path) -> Ast.Collect { n; dp_task; on_fail; path })
           (quad (int_range 1 20) gen_ident gen_action gen_path));
      (1, map (fun (interval, on_fail, max_attempt, path) ->
               Ast.Period { interval; on_fail; max_attempt; path })
           (quad gen_duration gen_action gen_max_attempt gen_path));
      (1, map3 (fun uj on_fail path ->
               Ast.Min_energy { uj = float_of_int uj /. 4.; on_fail; path })
           (int_range 1 100_000) gen_action gen_path);
      (1, map (fun (var, bounds, on_fail, path) ->
               let low, high = if fst bounds <= snd bounds then bounds else (snd bounds, fst bounds) in
               Ast.Dp_data { var; low = float_of_int low; high = float_of_int high; on_fail; path })
           (quad gen_ident (pair (int_range (-50) 50) (int_range (-50) 50)) gen_action gen_path));
    ]

let gen_spec =
  QCheck.Gen.(
    list_size (int_range 1 5)
      (map2 (fun task properties -> { Ast.task; properties })
         gen_ident
         (list_size (int_range 1 4) gen_property)))

let roundtrip =
  QCheck.Test.make ~name:"print-parse round trip" ~count:500 (QCheck.make gen_spec)
    (fun spec ->
      match Parser.parse (Printer.to_string spec) with
      | Ok spec' -> Ast.equal spec spec'
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "Figure 5 parses" `Quick test_figure5_parses;
    Alcotest.test_case "onFail clause binding" `Quick test_onfail_binding;
    Alcotest.test_case "optional colon after task" `Quick
      test_optional_colon_after_task;
    Alcotest.test_case "minEnergy extension property" `Quick
      test_min_energy_property;
    Alcotest.test_case "comments ignored" `Quick test_comments_ignored;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "truncated input" `Quick test_truncated;
    QCheck_alcotest.to_alcotest roundtrip;
  ]
