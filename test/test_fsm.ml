open Artemis
module Ast = Fsm.Ast
module Parser = Fsm.Parser
module Printer = Fsm.Printer
module Typecheck = Fsm.Typecheck
module Interp = Fsm.Interp

let machine_t =
  Alcotest.testable
    (fun ppf m -> Format.pp_print_string ppf (Printer.to_string m))
    Ast.equal_machine

let parse = Parser.parse_machine_exn

let max_tries_text =
  {|
machine maxTries_a {
  var i : int = 0;
  initial state NotStarted {
    on startTask(a) { i := 1; } -> Started;
  }
  state Started {
    on startTask(a) when (i < 3) { i := i + 1; };
    on startTask(a) when (i >= 3) { fail skipPath; i := 0; } -> NotStarted;
    on endTask(a) { i := 0; } -> NotStarted;
  }
}
|}

(* --- parser --- *)

let test_parse_structure () =
  let m = parse max_tries_text in
  Alcotest.(check string) "name" "maxTries_a" m.Ast.machine_name;
  Alcotest.(check string) "initial" "NotStarted" m.Ast.initial;
  Alcotest.(check int) "two states" 2 (List.length m.Ast.states);
  let started = Option.get (Ast.find_state m "Started") in
  Alcotest.(check int) "three transitions" 3 (List.length started.Ast.transitions);
  (* the self-loop has no arrow in the source *)
  let self = List.hd started.Ast.transitions in
  Alcotest.(check string) "self target" "Started" self.Ast.target

let test_parse_expressions () =
  let e = Parser.parse_expr_exn "t - start <= 100ms && path == 2" in
  let expected =
    Ast.Binop
      ( Ast.And,
        Ast.Binop
          ( Ast.Le,
            Ast.Binop (Ast.Sub, Ast.Timestamp, Ast.Var "start"),
            Ast.Lit (Ast.Vtime (Time.of_ms 100)) ),
        Ast.Binop (Ast.Eq, Ast.Event_path, Ast.Lit (Ast.Vint 2)) )
  in
  if not (Printer.expr_to_string e = Printer.expr_to_string expected) then
    Alcotest.failf "got %s" (Printer.expr_to_string e)

let test_parse_negative_literal_folding () =
  match Parser.parse_expr_exn "-3" with
  | Ast.Lit (Ast.Vint -3) -> ()
  | other -> Alcotest.failf "got %s" (Printer.expr_to_string other)

let test_parse_builtins () =
  (match Parser.parse_expr_exn "data(avgTemp) > 38.0" with
  | Ast.Binop (Ast.Gt, Ast.Dep_data "avgTemp", Ast.Lit (Ast.Vfloat _)) -> ()
  | _ -> Alcotest.fail "data() parse");
  match Parser.parse_expr_exn "energyLevel < 3.4" with
  | Ast.Binop (Ast.Lt, Ast.Energy_level, _) -> ()
  | _ -> Alcotest.fail "energyLevel parse"

let test_parse_errors () =
  let bad src =
    match Parser.parse src with
    | Ok _ -> Alcotest.failf "expected failure for %S" src
    | Error _ -> ()
  in
  bad "machine m { state S { } }";  (* no initial state *)
  bad "machine m { initial state A { } initial state B { } }";
  bad "machine m { initial state A { on banana; } }";
  bad "machine m { var x : quaternion = 1; initial state A { } }";
  bad "machine m { initial state A { on startTask(t) { fail explode; }; } }"

(* --- typecheck --- *)

let test_typecheck_ok () =
  Alcotest.(check bool) "well-typed" true (Typecheck.check (parse max_tries_text) = Ok ())

let expect_type_error text fragment =
  match Typecheck.check (parse text) with
  | Ok () -> Alcotest.failf "expected a type error mentioning %s" fragment
  | Error errs ->
      let joined = String.concat " | " errs in
      let contains sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length joined && (String.sub joined i n = sub || go (i + 1))
        in
        go 0
      in
      if not (contains fragment) then
        Alcotest.failf "errors %S do not mention %S" joined fragment

let test_typecheck_errors () =
  expect_type_error
    "machine m { initial state A { on startTask(t) when (x > 1); } }"
    "undeclared variable";
  expect_type_error
    "machine m { var x : int = 0; initial state A { on startTask(t) when (x); } }"
    "guard has type int";
  expect_type_error
    "machine m { var x : int = 0; initial state A { on startTask(t) { x := 100ms; }; } }"
    "assigning time";
  expect_type_error
    "machine m { var x : int = 0; initial state A { on startTask(t) when (x + t == t); } }"
    "equal operand types";
  expect_type_error
    "machine m { initial state A { on startTask(t) -> Nowhere; } }"
    "target state";
  expect_type_error "machine m { var x : bool = 3; initial state A { } }"
    "initializer type";
  expect_type_error
    "machine m { var x : time = 0us; initial state A { on startTask(t) when (x * x == x); } }"
    "not defined on time"

(* --- interpreter --- *)

let test_interp_max_tries () =
  let m = parse max_tries_text in
  let store = Interp.memory_store m in
  let start i = Helpers.event ~task:"a" ~ts:i () in
  Alcotest.(check int) "1st start ok" 0 (List.length (Interp.step m store (start 1)));
  Alcotest.(check int) "2nd ok" 0 (List.length (Interp.step m store (start 2)));
  Alcotest.(check int) "3rd ok" 0 (List.length (Interp.step m store (start 3)));
  (match Interp.step m store (start 4) with
  | [ { Interp.action = Ast.Skip_path; failed_machine = "maxTries_a"; target_path = None } ] -> ()
  | fs -> Alcotest.failf "expected one skipPath failure, got %d" (List.length fs));
  Alcotest.check Helpers.value "counter reset" (Ast.Vint 0) (store.Interp.get "i");
  Alcotest.(check string) "back to initial" "NotStarted" (store.Interp.get_state ())

let test_interp_implicit_self_transition () =
  let m = parse max_tries_text in
  let store = Interp.memory_store m in
  (* an event nothing matches: unrelated task *)
  let other = Helpers.event ~task:"zz" () in
  Alcotest.(check int) "accepted silently" 0 (List.length (Interp.step m store other));
  Alcotest.(check string) "state unchanged" "NotStarted" (store.Interp.get_state ())

let test_interp_transition_order () =
  (* first matching transition wins, in declaration order *)
  let m =
    parse
      {|
machine order {
  var x : int = 0;
  initial state A {
    on startTask(t) when (true) { x := 1; };
    on startTask(t) when (true) { x := 2; };
  }
}
|}
  in
  let store = Interp.memory_store m in
  ignore (Interp.step m store (Helpers.event ~task:"t" ()));
  Alcotest.check Helpers.value "first wins" (Ast.Vint 1) (store.Interp.get "x")

let test_interp_if_else_and_arith () =
  let m =
    parse
      {|
machine arith {
  var a : int = 10;
  var b : float = 1.5;
  var ok : bool = false;
  initial state S {
    on startTask(t) {
      a := a / 3 + 14 % 5;
      b := b * 2.0;
      if (a == 7 && b == 3.0) { ok := true; } else { ok := false; }
    };
  }
}
|}
  in
  let store = Interp.memory_store m in
  ignore (Interp.step m store (Helpers.event ~task:"t" ()));
  Alcotest.check Helpers.value "int arith" (Ast.Vint 7) (store.Interp.get "a");
  Alcotest.check Helpers.value "float arith" (Ast.Vfloat 3.0) (store.Interp.get "b");
  Alcotest.check Helpers.value "if took then-branch" (Ast.Vbool true)
    (store.Interp.get "ok")

let test_interp_dep_data_and_energy () =
  let m =
    parse
      {|
machine dd {
  initial state S {
    on endTask(t) when (data(x) > 38.0 || energyLevel < 1.0) { fail completePath; };
  }
}
|}
  in
  let store = Interp.memory_store m in
  let ok_event = Helpers.event ~kind:Fsm.Interp.End ~task:"t" ~dep_data:[ ("x", 37.0) ] ~energy:50. () in
  Alcotest.(check int) "in range" 0 (List.length (Interp.step m store ok_event));
  let bad_event = Helpers.event ~kind:Fsm.Interp.End ~task:"t" ~dep_data:[ ("x", 39.0) ] () in
  Alcotest.(check int) "out of range fires" 1 (List.length (Interp.step m store bad_event));
  let missing = Helpers.event ~kind:Fsm.Interp.End ~task:"t" () in
  match Interp.step m store missing with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected a runtime error for missing data"

let test_interp_division_by_zero () =
  let m =
    parse
      {|
machine dz {
  var x : int = 0;
  initial state S {
    on startTask(t) { x := 1 / x; };
  }
}
|}
  in
  let store = Interp.memory_store m in
  match Interp.step m store (Helpers.event ~task:"t" ()) with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected division by zero"

let test_mentions_task () =
  let m = parse max_tries_text in
  Alcotest.(check bool) "mentions a" true (Interp.mentions_task m "a");
  Alcotest.(check bool) "not b" false (Interp.mentions_task m "b")

(* --- printer round trip over generated machines --- *)

(* the z_ prefix keeps generated identifiers clear of keywords and the
   builtin names (t, path, data, energyLevel) *)
let gen_ident =
  QCheck.Gen.(
    map (fun rest -> "z_" ^ rest)
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 5)))

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Ast.Vint n) (int_range (-100) 100);
        map (fun b -> Ast.Vbool b) bool;
        map (fun f -> Ast.Vfloat (float_of_int f /. 4.)) (int_range (-400) 400);
        map (fun n -> Ast.Vtime (Time.of_ms n)) (int_bound 10_000);
      ])

let gen_expr vars =
  let open QCheck.Gen in
  let leaf =
    oneof
      ([ map (fun v -> Ast.Lit v) gen_value; return Ast.Timestamp; return Ast.Event_path;
         return Ast.Energy_level; map (fun x -> Ast.Dep_data x) gen_ident ]
      @ match vars with [] -> [] | vs -> [ map (fun x -> Ast.Var x) (oneofl vs) ])
  in
  let rec expr n =
    if n <= 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (2, map3 (fun op a b -> Ast.Binop (op, a, b))
                (oneofl Ast.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or ])
                (expr (n - 1)) (expr (n - 1)));
          (1, map2 (fun op e -> Ast.Unop (op, e)) (oneofl Ast.[ Neg; Not ]) (expr (n - 1)));
        ]
  in
  expr 3

let gen_machine =
  let open QCheck.Gen in
  let* vars =
    list_size (int_range 0 3)
      (map3 (fun name ty persistent ->
           let init =
             match ty with
             | Ast.Tint -> Ast.Vint 0
             | Ast.Tbool -> Ast.Vbool false
             | Ast.Tfloat -> Ast.Vfloat 0.
             | Ast.Ttime -> Ast.Vtime Time.zero
           in
           { Ast.var_name = name; ty; init; persistent })
         gen_ident (oneofl Ast.[ Tint; Tbool; Tfloat; Ttime ]) bool)
  in
  let var_names = List.map (fun v -> v.Ast.var_name) vars in
  let gen_stmt =
    let open QCheck.Gen in
    frequency
      ([ (1, map2 (fun a p -> Ast.Fail (a, p))
              (oneofl Ast.[ Restart_path; Skip_path; Restart_task; Skip_task; Complete_path ])
              (opt (int_range 1 5))) ]
      @
      match var_names with
      | [] -> []
      | vs -> [ (3, map2 (fun x e -> Ast.Assign (x, e)) (oneofl vs) (gen_expr var_names)) ])
  in
  let* state_names = map (List.sort_uniq String.compare) (list_size (int_range 1 4) gen_ident) in
  let gen_transition =
    let* trigger =
      oneof
        [ map (fun t -> Ast.On_start t) gen_ident; map (fun t -> Ast.On_end t) gen_ident;
          return Ast.On_any ]
    in
    let* guard = opt (gen_expr var_names) in
    let* body = list_size (int_range 0 3) gen_stmt in
    let* target = oneofl state_names in
    return { Ast.trigger; guard; body; target }
  in
  let* states =
    flatten_l
      (List.map
         (fun state_name ->
           let* transitions = list_size (int_range 0 3) gen_transition in
           return { Ast.state_name; transitions })
         state_names)
  in
  let* name = gen_ident in
  return { Ast.machine_name = name; vars; initial = List.hd state_names; states }

let printer_roundtrip =
  QCheck.Test.make ~name:"fsm print-parse round trip" ~count:300
    (QCheck.make gen_machine)
    (fun m ->
      match Parser.parse (Printer.to_string m) with
      | Ok [ m' ] -> Ast.equal_machine m m'
      | Ok _ | Error _ -> false)

let suite =
  [
    Alcotest.test_case "parse structure" `Quick test_parse_structure;
    Alcotest.test_case "parse expressions" `Quick test_parse_expressions;
    Alcotest.test_case "negative literal folding" `Quick
      test_parse_negative_literal_folding;
    Alcotest.test_case "builtin primitives" `Quick test_parse_builtins;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "typecheck accepts good machines" `Quick test_typecheck_ok;
    Alcotest.test_case "typecheck errors" `Quick test_typecheck_errors;
    Alcotest.test_case "interp: maxTries machine" `Quick test_interp_max_tries;
    Alcotest.test_case "interp: implicit self-transition" `Quick
      test_interp_implicit_self_transition;
    Alcotest.test_case "interp: declaration order" `Quick
      test_interp_transition_order;
    Alcotest.test_case "interp: statements and arithmetic" `Quick
      test_interp_if_else_and_arith;
    Alcotest.test_case "interp: data() and energyLevel" `Quick
      test_interp_dep_data_and_energy;
    Alcotest.test_case "interp: division by zero" `Quick
      test_interp_division_by_zero;
    Alcotest.test_case "mentions_task" `Quick test_mentions_task;
    QCheck_alcotest.to_alcotest printer_roundtrip;
    Alcotest.test_case "machine equality sanity" `Quick (fun () ->
        let m = parse max_tries_text in
        Alcotest.check machine_t "reflexive" m m);
  ]
