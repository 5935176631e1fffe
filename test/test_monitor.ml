open Artemis
module F = Fsm.Ast
module Interp = Fsm.Interp

let machine_text =
  {|
machine m {
  var x : int = 0;
  persistent var keep : int = 0;
  initial state A {
    on startTask(t) { x := x + 1; keep := keep + 1; } -> B;
  }
  state B {
    on endTask(t) -> A;
  }
}
|}

let make () =
  let nvm = Nvm.create () in
  let monitor =
    Monitor.create nvm
      (Fsm.Table.compile (Fsm.Parser.parse_machine_exn machine_text))
  in
  (nvm, monitor)

let test_state_survives_power_failure () =
  let nvm, m = make () in
  ignore (Monitor.step m (Helpers.event ~task:"t" ()));
  Nvm.power_failure nvm;
  Alcotest.(check string) "state persists" "B" (Monitor.current_state m);
  Alcotest.check Helpers.value "vars persist" (F.Vint 1) (Monitor.read_var m "x")

let test_hard_reset () =
  let _, m = make () in
  ignore (Monitor.step m (Helpers.event ~task:"t" ()));
  Monitor.hard_reset m;
  Alcotest.(check string) "initial state" "A" (Monitor.current_state m);
  Alcotest.check Helpers.value "all vars reset" (F.Vint 0) (Monitor.read_var m "keep")

let test_reinitialize_preserves_persistent () =
  let _, m = make () in
  ignore (Monitor.step m (Helpers.event ~task:"t" ()));
  Monitor.reinitialize m;
  Alcotest.(check string) "state reset" "A" (Monitor.current_state m);
  Alcotest.check Helpers.value "ordinary var reset" (F.Vint 0) (Monitor.read_var m "x");
  Alcotest.check Helpers.value "persistent var kept" (F.Vint 1)
    (Monitor.read_var m "keep")

let test_ill_typed_rejected () =
  let nvm = Nvm.create () in
  let bad =
    Fsm.Parser.parse_machine_exn
      "machine bad { initial state A { on startTask(t) when (zz > 1); } }"
  in
  match Suite.create nvm [ bad ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "ill-typed machine accepted"

let test_watches_task_and_fram () =
  let nvm, m = make () in
  Alcotest.(check bool) "watches t" true (Monitor.watches_task m "t");
  Alcotest.(check bool) "ignores u" false (Monitor.watches_task m "u");
  (* 2 state + 24 property table + 4 + 4 vars *)
  Alcotest.(check int) "fram bytes" 34
    (Nvm.footprint nvm ~kind:Nvm.Fram ~region:Nvm.Monitor)

let test_read_var_unknown () =
  let _, m = make () in
  match Monitor.read_var m "nope" with
  | exception Invalid_argument msg ->
      let mentions sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        "names the monitor" true
        (mentions (Monitor.name m));
      Alcotest.(check bool) "names the variable" true (mentions "nope")
  | exception Not_found -> Alcotest.fail "bare Not_found leaked"
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- Suite --- *)

let test_suite_step_all_order () =
  let nvm = Nvm.create () in
  let mk name action =
    Fsm.Parser.parse_machine_exn
      (Printf.sprintf
         "machine %s { initial state A { on startTask(t) { fail %s; }; } }" name
         action)
  in
  let suite = Suite.create nvm [ mk "first" "restartTask"; mk "second" "skipPath" ] in
  let failures = Suite.step_all suite (Helpers.event ~task:"t" ()) in
  Alcotest.(check (list string)) "deployment order"
    [ "first"; "second" ]
    (List.map (fun (f : Interp.failure) -> f.Interp.failed_machine) failures);
  match Suite.arbitrate failures with
  | Some { Interp.failed_machine = "second"; action = F.Skip_path; _ } -> ()
  | _ -> Alcotest.fail "skipPath outranks restartTask"

let test_severity_order () =
  let order =
    List.map Suite.severity
      [ F.Skip_path; F.Restart_path; F.Complete_path; F.Skip_task; F.Restart_task ]
  in
  Alcotest.(check (list int)) "strictly decreasing" [ 4; 3; 2; 1; 0 ] order

let test_arbitrate_ties_first_wins () =
  let f name = { Interp.failed_machine = name; action = F.Skip_task; target_path = None } in
  match Suite.arbitrate [ f "a"; f "b" ] with
  | Some { Interp.failed_machine = "a"; _ } -> ()
  | _ -> Alcotest.fail "first-reported wins ties"

let test_arbitrate_empty () =
  Alcotest.(check bool) "none" true (Suite.arbitrate [] = None)

let test_reinit_for_tasks () =
  let nvm = Nvm.create () in
  let suite =
    Suite.create nvm
      [
        Fsm.Parser.parse_machine_exn
          "machine watches_a { var x : int = 0; initial state S { on startTask(a) { x := 1; }; } }";
        Fsm.Parser.parse_machine_exn
          "machine watches_b { var x : int = 0; initial state S { on startTask(b) { x := 1; }; } }";
      ]
  in
  ignore (Suite.step_all suite (Helpers.event ~task:"a" ()));
  ignore (Suite.step_all suite (Helpers.event ~task:"b" ()));
  Suite.reinit_for_tasks suite ~tasks:[ "a" ];
  let find name =
    List.find (fun m -> Monitor.name m = name) (Suite.monitors suite)
  in
  Alcotest.check Helpers.value "a's monitor reset" (F.Vint 0)
    (Monitor.read_var (find "watches_a") "x");
  Alcotest.check Helpers.value "b's monitor untouched" (F.Vint 1)
    (Monitor.read_var (find "watches_b") "x")

let test_reinit_on_any () =
  (* regression: an anyEvent-only machine watches every task, so a path
     restart must re-initialize it too (mentions_task used to return
     false for On_any, leaving its state stale across restarts) *)
  let nvm = Nvm.create () in
  let suite =
    Suite.create nvm
      [
        Fsm.Parser.parse_machine_exn
          "machine anyonly { var x : int = 0; initial state S { on anyEvent { x := 1; }; } }";
      ]
  in
  ignore (Suite.step_all suite (Helpers.event ~task:"whatever" ()));
  let m = List.hd (Suite.monitors suite) in
  Alcotest.check Helpers.value "stepped" (F.Vint 1) (Monitor.read_var m "x");
  Suite.reinit_for_tasks suite ~tasks:[ "whatever" ];
  Alcotest.check Helpers.value "reset on path restart" (F.Vint 0)
    (Monitor.read_var m "x")

let test_dispatch_skips_non_watching () =
  let nvm = Nvm.create () in
  let suite =
    Suite.create nvm
      [
        Fsm.Parser.parse_machine_exn
          "machine watches_a { initial state S { on startTask(a); } }";
        Fsm.Parser.parse_machine_exn
          "machine watches_b { initial state S { on startTask(b); } }";
        Fsm.Parser.parse_machine_exn
          "machine anyonly { initial state S { on anyEvent; } }";
      ]
  in
  let names ev =
    List.filter_map
      (fun m ->
        if Monitor.watches_event m ev then Some (Monitor.name m) else None)
      (Suite.monitors suite)
  in
  Alcotest.(check (list string)) "a's event"
    [ "watches_a"; "anyonly" ]
    (names (Helpers.event ~task:"a" ()));
  Alcotest.(check (list string)) "b's event"
    [ "watches_b"; "anyonly" ]
    (names (Helpers.event ~task:"b" ()));
  Alcotest.(check (list string)) "unknown task: only anyEvent watchers"
    [ "anyonly" ]
    (names (Helpers.event ~task:"zz" ()))

let test_engines_agree_over_nvm () =
  let step_with engine =
    let nvm = Nvm.create () in
    let m =
      Monitor.create ~engine nvm
        (Fsm.Table.compile (Fsm.Parser.parse_machine_exn machine_text))
    in
    ignore (Monitor.step m (Helpers.event ~task:"t" ()));
    Nvm.power_failure nvm;
    ignore (Monitor.step m (Helpers.event ~kind:Interp.End ~task:"t" ()));
    ignore (Monitor.step m (Helpers.event ~task:"t" ()));
    (Monitor.current_state m, Monitor.read_var m "x", Monitor.read_var m "keep")
  in
  let si, xi, ki = step_with Monitor.Interpreted in
  let st, xt, kt = step_with Monitor.Table in
  Alcotest.(check string) "same state" si st;
  Alcotest.check Helpers.value "same x" xi xt;
  Alcotest.check Helpers.value "same keep" ki kt

(* --- Deploy-time compilation --- *)

(* [Monitor.create] deploys the table it is given, and under either
   engine the monitor's FRAM cells, control-state ids and watched tasks
   all come from that one table's interning. *)
let test_deploy_interning () =
  List.iter
    (fun (engine_name, engine) ->
      let label what = engine_name ^ ": " ^ what in
      let nvm = Nvm.create () in
      let machine = Fsm.Parser.parse_machine_exn machine_text in
      let t = Fsm.Table.compile machine in
      let m = Monitor.create ~engine ~cell_prefix:"g1/m" nvm t in
      Alcotest.(check bool) (label "keeps the table it was given") true
        (Monitor.table m == t && Monitor.machine m == machine);
      Alcotest.(check (list string))
        (label "cells: state, then vars in slot order")
        (("g1/m.state"
         :: List.init (Fsm.Table.var_count t) (fun slot ->
                "g1/m." ^ Fsm.Table.var_name t slot))
        @ [ "g1/m.property_t" ])
        (Nvm.cell_names nvm ~region:Nvm.Monitor);
      Alcotest.(check string) (label "initial state id")
        (Fsm.Table.state_name t (Fsm.Table.initial_state t))
        (Monitor.current_state m);
      ignore (Monitor.step m (Helpers.event ~task:"t" ()));
      Alcotest.(check string) (label "stepped state") "B" (Monitor.current_state m);
      Alcotest.check Helpers.value (label "slot 0 written") (F.Vint 1)
        (Monitor.read_var m (Fsm.Table.var_name t 0));
      List.iter
        (fun task ->
          Alcotest.(check bool) (label ("watches " ^ task))
            (Fsm.Table.mentions_task t task) (Monitor.watches_task m task))
        [ "t"; "u" ])
    Monitor.engines

let compile_suite =
  [ Alcotest.test_case "interning tables" `Quick test_deploy_interning ]

let suite =
  [
    Alcotest.test_case "state survives power failure" `Quick
      test_state_survives_power_failure;
    Alcotest.test_case "hard reset" `Quick test_hard_reset;
    Alcotest.test_case "reinitialize preserves persistent vars" `Quick
      test_reinitialize_preserves_persistent;
    Alcotest.test_case "ill-typed machines rejected" `Quick test_ill_typed_rejected;
    Alcotest.test_case "watches_task and FRAM accounting" `Quick
      test_watches_task_and_fram;
    Alcotest.test_case "read_var unknown" `Quick test_read_var_unknown;
    Alcotest.test_case "suite: step order and arbitration" `Quick
      test_suite_step_all_order;
    Alcotest.test_case "suite: severity order" `Quick test_severity_order;
    Alcotest.test_case "suite: ties" `Quick test_arbitrate_ties_first_wins;
    Alcotest.test_case "suite: empty arbitration" `Quick test_arbitrate_empty;
    Alcotest.test_case "suite: selective re-initialisation" `Quick
      test_reinit_for_tasks;
    Alcotest.test_case "suite: anyEvent machines reinit on path restart" `Quick
      test_reinit_on_any;
    Alcotest.test_case "suite: dispatch index skips non-watching monitors" `Quick
      test_dispatch_skips_non_watching;
    Alcotest.test_case "engines agree over NVM" `Quick test_engines_agree_over_nvm;
  ]
