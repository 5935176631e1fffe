(* Unit tests for the flat-table bytecode engine (Fsm.Table): interning,
   CSR dispatch lookup in declaration order, equivalence with the
   interpreter on handcrafted machines, bytecode edge cases (division by
   zero, NaN, missing payloads), the zero-allocation steady-state
   contract and a faultsim depth-1 campaign with Table pinned.
   Randomized equivalence lives in test_differential.ml. *)

open Artemis
module F = Fsm.Ast
module Interp = Fsm.Interp
module Table = Fsm.Table

let parse = Fsm.Parser.parse_machine_exn

let failure =
  Alcotest.testable
    (fun ppf (f : Interp.failure) ->
      Format.fprintf ppf "%s/%s" f.Interp.failed_machine
        (F.action_to_string f.Interp.action))
    ( = )

let machine_text =
  {|
machine m {
  var x : int = 0;
  persistent var keep : int = 7;
  initial state A {
    on startTask(t) when (x < 2) { x := x + 1; } -> B;
    on startTask(t) { fail restartTask; } -> A;
  }
  state B {
    on endTask(t) -> A;
    on anyEvent when (x > 10) { fail skipPath Path 2; } -> B;
  }
}
|}

let test_interning () =
  let m = parse machine_text in
  let t = Table.compile m in
  Alcotest.(check int) "state count" 2 (Table.state_count t);
  Alcotest.(check string) "state 0" "A" (Table.state_name t 0);
  Alcotest.(check string) "state 1" "B" (Table.state_name t 1);
  Alcotest.(check int) "id of B" 1 (Table.state_id t "B");
  Alcotest.(check int) "initial is A" 0 (Table.initial_state t);
  Alcotest.(check int) "var count" 2 (Table.var_count t);
  Alcotest.(check string) "slot 0" "x" (Table.var_name t 0);
  Alcotest.(check int) "slot of keep" 1 (Table.var_id t "keep");
  (* slots are declaration order, so a monitor's FRAM cell layout is the
     same whichever engine runs it *)
  List.iteri
    (fun slot (v : F.var_decl) ->
      Alcotest.(check int) ("slot of " ^ v.F.var_name) slot
        (Table.var_id t v.F.var_name))
    m.F.vars;
  (match Table.state_id t "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown state must raise");
  Alcotest.(check (list string)) "watched tasks" [ "t" ] (Table.watched_tasks t);
  Alcotest.(check bool) "uses anyEvent" true (Table.watches_any_event t);
  Alcotest.(check bool) "mentions watched" true (Table.mentions_task t "t");
  Alcotest.(check bool) "anyEvent mentions all" true (Table.mentions_task t "zz")

let test_footprint () =
  let t = Table.compile (parse machine_text) in
  Alcotest.(check bool) "dispatch table non-empty" true (Table.dispatch_words t > 0);
  Alcotest.(check bool) "bytecode non-empty" true (Table.code_words t > 0);
  Alcotest.(check int) "buffer = dispatch + code"
    (Table.dispatch_words t + Table.code_words t)
    (Table.buffer_words t);
  (* register file: control state + 2 int vars, no floats *)
  Alcotest.(check int) "int registers" 3 (Table.int_regs t);
  Alcotest.(check int) "float registers" 0 (Table.float_regs t)

(* CSR dispatch: the (state, kind, task) row must deliver exactly the
   declaration-order candidates, with unknown tasks falling back to the
   anyEvent-only column. *)
let test_csr_dispatch () =
  let t = Table.compile (parse machine_text) in
  let inst = Table.instance t in
  (* A + start(t): guard x<2 passes, first transition fires -> B *)
  ignore (Table.step t inst (Helpers.event ~task:"t" ()));
  Alcotest.(check int) "A -start t-> B" 1 (Table.current_state inst);
  (* B + start for an unknown task: anyEvent candidate, guard x>10 false,
     implicit self-transition *)
  Alcotest.(check (list failure)) "unknown task: no fire" []
    (Table.step t inst (Helpers.event ~task:"zz" ()));
  Alcotest.(check int) "still in B" 1 (Table.current_state inst);
  (* B + end(t) -> A *)
  ignore (Table.step t inst (Helpers.event ~kind:Interp.End ~task:"t" ()));
  Alcotest.(check int) "B -end t-> A" 0 (Table.current_state inst);
  (* end(t) in A matches nothing: stay *)
  ignore (Table.step t inst (Helpers.event ~kind:Interp.End ~task:"t" ()));
  Alcotest.(check int) "A ignores end(t)" 0 (Table.current_state inst);
  (* exhaust the guard: x reaches 2, then the fail fallback fires *)
  ignore (Table.step t inst (Helpers.event ~task:"t" ()));  (* x=2, -> B *)
  ignore (Table.step t inst (Helpers.event ~kind:Interp.End ~task:"t" ()));
  let failures = Table.step t inst (Helpers.event ~task:"t" ()) in
  Alcotest.(check (list failure)) "fallback fails"
    [ { Interp.failed_machine = "m"; action = F.Restart_task; target_path = None } ]
    failures

let test_instance_initials () =
  let t = Table.compile (parse machine_text) in
  let inst = Table.instance t in
  Alcotest.(check int) "starts in initial" 0 (Table.current_state inst);
  Alcotest.check Helpers.value "x init" (F.Vint 0) (Table.read_var t inst 0);
  Alcotest.check Helpers.value "keep init" (F.Vint 7) (Table.read_var t inst 1)

let test_step_matches_interpreter () =
  let m = parse machine_text in
  let t = Table.compile m in
  let istore = Interp.memory_store m and inst = Table.instance t in
  let feed ev =
    let fi = Interp.step m istore ev and ft = Table.step t inst ev in
    Alcotest.(check (list failure)) "same failures" fi ft;
    Alcotest.(check string) "same state"
      (istore.Interp.get_state ())
      (Table.state_name t (Table.current_state inst))
  in
  (* drives both the quickened guard and the fail fallback *)
  List.iter feed
    [
      Helpers.event ~task:"t" ();
      Helpers.event ~kind:Interp.End ~task:"t" ();
      Helpers.event ~task:"t" ();
      Helpers.event ~kind:Interp.End ~task:"t" ();
      Helpers.event ~task:"t" ();  (* x = 2: guard fails, second fires *)
      Helpers.event ~task:"other" ();  (* implicit self-transition *)
    ];
  Alcotest.check Helpers.value "x saturated" (F.Vint 2) (Table.read_var t inst 0)

let test_declaration_order_dispatch () =
  (* anyEvent declared before the task-specific transition must win when
     both can fire - the dispatch row preserves declaration order. *)
  let t =
    Table.compile
      (parse
         {|
machine order {
  var hit : int = 0;
  initial state A {
    on anyEvent { hit := 1; } -> A;
    on startTask(t) { hit := 2; } -> A;
  }
}
|})
  in
  let inst = Table.instance t in
  ignore (Table.step t inst (Helpers.event ~task:"t" ()));
  Alcotest.check Helpers.value "anyEvent fired first" (F.Vint 1)
    (Table.read_var t inst 0)

let test_unknown_task_falls_back_to_any () =
  let t =
    Table.compile
      (parse
         {|
machine fb {
  var n : int = 0;
  initial state A {
    on startTask(t) { n := 100; } -> A;
    on anyEvent { n := n + 1; } -> A;
  }
}
|})
  in
  let inst = Table.instance t in
  ignore (Table.step t inst (Helpers.event ~task:"unknown" ()));
  ignore (Table.step t inst (Helpers.event ~kind:Interp.End ~task:"zz" ()));
  Alcotest.check Helpers.value "anyEvent handled both" (F.Vint 2)
    (Table.read_var t inst 0)

let test_dynamic_errors_match () =
  let m =
    parse
      {|
machine err {
  var f : float = 0.0;
  initial state A {
    on endTask(t) { f := data(missing); } -> A;
  }
}
|}
  in
  let t = Table.compile m in
  let istore = Interp.memory_store m and inst = Table.instance t in
  let ev = Helpers.event ~kind:Interp.End ~task:"t" () in
  let msg run =
    match run () with
    | _ -> Alcotest.fail "expected Runtime_error"
    | exception Interp.Runtime_error e -> e
  in
  Alcotest.(check string) "same error message"
    (msg (fun () -> Interp.step m istore ev))
    (msg (fun () -> Table.step t inst ev))

let test_mentions_task_on_any () =
  (* regression: machines whose only triggers are anyEvent watch every
     task (once reported false, so path restarts never re-initialized
     them) *)
  let m = parse "machine anyonly { initial state A { on anyEvent -> A; } }" in
  Alcotest.(check bool) "Interp.mentions_task" true
    (Interp.mentions_task m "whatever");
  let t = Table.compile m in
  Alcotest.(check bool) "Table.mentions_task" true
    (Table.mentions_task t "whatever");
  Alcotest.(check bool) "watches_any_event" true (Table.watches_any_event t);
  (* and a machine without anyEvent still discriminates *)
  let m2 = parse "machine plain { initial state A { on startTask(t) -> A; } }" in
  let t2 = Table.compile m2 in
  Alcotest.(check bool) "named task" true (Table.mentions_task t2 "t");
  Alcotest.(check bool) "other task" false (Table.mentions_task t2 "u");
  Alcotest.(check bool) "Interp agrees" false (Interp.mentions_task m2 "u")

let test_ill_typed_rejected () =
  let bad =
    parse "machine bad { initial state A { on startTask(t) when (zz > 1); } }"
  in
  match Table.compile bad with
  | exception Failure msg ->
      (* the typechecker's message, not a lowering error *)
      Alcotest.(check string) "typecheck message"
        "machine \"bad\": state \"A\", transition: undeclared variable \"zz\""
        msg
  | _ -> Alcotest.fail "ill-typed machine accepted"

let test_division_by_zero () =
  let m =
    parse
      {|
machine div {
  var x : int = 1;
  initial state A {
    on startTask(t) { x := x / (x - 1); } -> A;
    on endTask(t) { x := x % (x - 1); } -> A;
  }
}
|}
  in
  let t = Table.compile m in
  let inst = Table.instance t in
  (match Table.step t inst (Helpers.event ~task:"t" ()) with
  | exception Interp.Runtime_error msg ->
      Alcotest.(check string) "same message as interpreter"
        "integer division by zero" msg
  | _ -> Alcotest.fail "div by zero must raise");
  (match Table.step t inst (Helpers.event ~kind:Interp.End ~task:"t" ()) with
  | exception Interp.Runtime_error msg ->
      Alcotest.(check string) "same message as interpreter" "modulo by zero" msg
  | _ -> Alcotest.fail "mod by zero must raise")

let test_missing_dep_data () =
  let m =
    parse
      {|
machine dep {
  var f : float = 0.0;
  initial state A {
    on startTask(t) { f := data(d); } -> A;
  }
}
|}
  in
  let t = Table.compile m in
  let inst = Table.instance t in
  match Table.step t inst (Helpers.event ~task:"t" ~dep_data:[] ()) with
  | exception Interp.Runtime_error msg ->
      Alcotest.(check string) "same message as interpreter"
        "event carries no data for \"d\"" msg
  | _ -> Alcotest.fail "missing payload must raise"

(* NaN handling: 0/0 stores NaN; [Ast.same_value] treats NaN as equal to
   itself (totals via Float.compare) while the machine-level IEEE [=]
   keeps NaN <> NaN - both must match the interpreter exactly. *)
let test_nan_semantics () =
  let m =
    parse
      {|
machine nan {
  var f : float = 0.0;
  var b : bool = false;
  initial state A {
    on startTask(t) { f := f / f; b := f == f; } -> A;
  }
}
|}
  in
  let t = Table.compile m in
  let inst = Table.instance t in
  let istore = Interp.memory_store m in
  ignore (Table.step t inst (Helpers.event ~task:"t" ()));
  ignore (Interp.step m istore (Helpers.event ~task:"t" ()));
  let tf = Table.read_var t inst (Table.var_id t "f") in
  Alcotest.(check bool) "f is NaN" true
    (match tf with F.Vfloat x -> Float.is_nan x | _ -> false);
  Alcotest.check Helpers.value "NaN totals agree with interp"
    (istore.Interp.get "f") tf;
  (* b := f = f used IEEE equality mid-step: NaN <> NaN *)
  Alcotest.check Helpers.value "IEEE NaN <> NaN" (F.Vbool false)
    (Table.read_var t inst (Table.var_id t "b"))

(* The ISSUE contract: a steady-state step allocates nothing.  Drive a
   machine through guard evaluation, arithmetic and register stores for
   10k steps and require the minor-heap delta to stay within a small
   constant slack (the Gc probe itself boxes a float). *)
let test_zero_allocation () =
  let m =
    parse
      {|
machine hot {
  var x : int = 0;
  var f : float = 1.5;
  initial state A {
    on startTask(t) when (x < 1000000 && f < 100000.0) { x := x + 1; f := f * 1.0001; } -> B;
  }
  state B {
    on endTask(t) when (x % 7 != 3 || f > 0.0) { x := x + 1; } -> A;
  }
}
|}
  in
  let t = Table.compile m in
  let inst = Table.instance t in
  let ev_start = Helpers.event ~task:"t" () in
  let ev_end = Helpers.event ~kind:Interp.End ~task:"t" () in
  (* warm up: fault in any lazy setup *)
  ignore (Table.step t inst ev_start);
  ignore (Table.step t inst ev_end);
  let before = Gc.minor_words () in
  for _ = 1 to 5_000 do
    ignore (Table.step t inst ev_start);
    ignore (Table.step t inst ev_end)
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256. then
    Alcotest.failf "10k steps allocated %.0f minor words (want ~0)" delta

(* the crash-recovery contract on the engine the energy bound analyses:
   depth-1 exhaustive fault injection on quickstart with Table pinned by
   [with_engine], so it holds whichever engine deployments default to *)
let test_faultsim_depth1_table () =
  let scenario =
    Artemis_faultsim.Scenario.with_engine Monitor.Table
      Artemis_faultsim.Scenario.quickstart
  in
  let campaign = Artemis_faultsim.Faultsim.exhaustive scenario ~seed:11 ~depth:1 in
  Alcotest.(check int) "no oracle violations" 0
    (Artemis_faultsim.Faultsim.total_violations campaign)

let suite =
  [
    Alcotest.test_case "interning tables" `Quick test_interning;
    Alcotest.test_case "instance initials" `Quick test_instance_initials;
    Alcotest.test_case "table = interpreted (handcrafted)" `Quick
      test_step_matches_interpreter;
    Alcotest.test_case "declaration order preserved by index" `Quick
      test_declaration_order_dispatch;
    Alcotest.test_case "unknown task falls back to anyEvent" `Quick
      test_unknown_task_falls_back_to_any;
    Alcotest.test_case "dynamic errors identical" `Quick test_dynamic_errors_match;
    Alcotest.test_case "mentions_task: anyEvent watches all (regression)" `Quick
      test_mentions_task_on_any;
    Alcotest.test_case "ill-typed machines rejected" `Quick test_ill_typed_rejected;
    Alcotest.test_case "flat-buffer footprint" `Quick test_footprint;
    Alcotest.test_case "CSR dispatch lookup" `Quick test_csr_dispatch;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "missing data() payload" `Quick test_missing_dep_data;
    Alcotest.test_case "NaN semantics" `Quick test_nan_semantics;
    Alcotest.test_case "zero allocation per step" `Quick test_zero_allocation;
    Alcotest.test_case "faultsim depth-1 (table engine)" `Quick
      test_faultsim_depth1_table;
  ]
