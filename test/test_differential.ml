(* Differential fuzzing of the two FSM execution engines: for random
   well-typed machines and random event traces, the deployed flat-table
   bytecode engine (Fsm.Table) must be observationally equivalent to the
   reference interpreter (Fsm.Interp) - same control state, same
   variable values, same emitted failures, same dynamic errors -
   including over NVM-backed monitors with power failures injected
   between events. *)

open Artemis
module F = Fsm.Ast
module Interp = Fsm.Interp
module Table = Fsm.Table

(* --- random well-typed machines --- *)

(* Fixed declarations keep the expression generator simple: every machine
   declares the same typed pool and the generator picks variables by
   type. *)
let var_pool =
  [
    { F.var_name = "x"; ty = F.Tint; init = F.Vint 0; persistent = false };
    { F.var_name = "y"; ty = F.Tint; init = F.Vint 3; persistent = true };
    { F.var_name = "f"; ty = F.Tfloat; init = F.Vfloat 1.5; persistent = false };
    { F.var_name = "b"; ty = F.Tbool; init = F.Vbool false; persistent = false };
    { F.var_name = "tm"; ty = F.Ttime; init = F.Vtime (Time.of_ms 250); persistent = true };
  ]

let tasks = [ "a"; "b"; "c" ]

open QCheck.Gen

let rec int_expr n =
  if n <= 0 then oneofl [ F.Var "x"; F.Var "y"; F.Event_path; F.Lit (F.Vint 2) ]
  else
    frequency
      [
        (2, int_expr 0);
        (1, map (fun e -> F.Unop (F.Neg, e)) (int_expr (n - 1)));
        ( 3,
          map3
            (fun op a b -> F.Binop (op, a, b))
            (oneofl [ F.Add; F.Sub; F.Mul ])
            (int_expr (n - 1)) (int_expr (n - 1)) );
        (* divisor drawn from {0, 2}: division by zero must raise the
           same Runtime_error from both engines *)
        ( 1,
          map3
            (fun op a d -> F.Binop (op, a, F.Lit (F.Vint d)))
            (oneofl [ F.Div; F.Mod ])
            (int_expr (n - 1))
            (frequency [ (5, return 2); (1, return 0) ]) );
      ]

let rec float_expr n =
  if n <= 0 then
    oneofl
      [ F.Var "f"; F.Energy_level; F.Lit (F.Vfloat 0.5); F.Dep_data "d" ]
  else
    frequency
      [
        (2, float_expr 0);
        ( 3,
          map3
            (fun op a b -> F.Binop (op, a, b))
            (oneofl [ F.Add; F.Sub; F.Mul ])
            (float_expr (n - 1)) (float_expr (n - 1)) );
      ]

let time_expr =
  oneofl [ F.Var "tm"; F.Timestamp; F.Lit (F.Vtime (Time.of_ms 500)) ]

let rec bool_expr n =
  if n <= 0 then oneofl [ F.Var "b"; F.Lit (F.Vbool true); F.Lit (F.Vbool false) ]
  else
    let cmp_op = oneofl [ F.Eq; F.Ne; F.Lt; F.Le; F.Gt; F.Ge ] in
    frequency
      [
        (1, bool_expr 0);
        ( 2,
          map3 (fun op a b -> F.Binop (op, a, b)) cmp_op (int_expr (n - 1))
            (int_expr (n - 1)) );
        ( 2,
          map3 (fun op a b -> F.Binop (op, a, b)) cmp_op (float_expr (n - 1))
            (float_expr (n - 1)) );
        (1, map3 (fun op a b -> F.Binop (op, a, b)) cmp_op time_expr time_expr);
        ( 2,
          map3
            (fun op a b -> F.Binop (op, a, b))
            (oneofl [ F.And; F.Or ])
            (bool_expr (n - 1)) (bool_expr (n - 1)) );
        (1, map (fun e -> F.Unop (F.Not, e)) (bool_expr (n - 1)));
      ]

let assign =
  oneof
    [
      map (fun e -> F.Assign ("x", e)) (int_expr 2);
      map (fun e -> F.Assign ("y", e)) (int_expr 2);
      map (fun e -> F.Assign ("f", e)) (float_expr 2);
      map (fun e -> F.Assign ("b", e)) (bool_expr 2);
      map (fun e -> F.Assign ("tm", e)) time_expr;
    ]

let fail_stmt =
  map2
    (fun a p -> F.Fail (a, p))
    (oneofl
       [ F.Restart_path; F.Skip_path; F.Restart_task; F.Skip_task; F.Complete_path ])
    (frequency [ (3, return None); (1, return (Some 2)) ])

let rec stmt depth =
  if depth <= 0 then frequency [ (4, assign); (1, fail_stmt) ]
  else
    frequency
      [
        (4, assign);
        (1, fail_stmt);
        ( 1,
          map3
            (fun c t e -> F.If (c, t, e))
            (bool_expr 1)
            (list_size (int_bound 2) (stmt (depth - 1)))
            (list_size (int_bound 2) (stmt (depth - 1))) );
      ]

let trigger =
  frequency
    [
      (3, map (fun t -> F.On_start t) (oneofl tasks));
      (3, map (fun t -> F.On_end t) (oneofl tasks));
      (1, return F.On_any);
    ]

let transition n_states =
  let* trigger = trigger in
  let* guard = opt (bool_expr 2) in
  let* body = list_size (int_bound 3) (stmt 1) in
  let* target = int_bound (n_states - 1) in
  return { F.trigger; guard; body; target = Printf.sprintf "S%d" target }

let machine =
  let* n_states = int_range 1 4 in
  let* states =
    flatten_l
      (List.init n_states (fun i ->
           let* transitions = list_size (int_bound 3) (transition n_states) in
           return { F.state_name = Printf.sprintf "S%d" i; transitions }))
  in
  return
    { F.machine_name = "fuzzed"; vars = var_pool; initial = "S0"; states }

(* --- random event traces --- *)

let event i =
  let* kind = oneofl [ Interp.Start; Interp.End ] in
  let* task = frequency [ (6, oneofl tasks); (1, return "zz") ] in
  let* path = int_range 1 3 in
  (* sometimes omit the payload: data(d) must raise identically *)
  let* dep_data =
    frequency
      [ (4, map (fun v -> [ ("d", v) ]) (float_bound_exclusive 100.)); (1, return []) ]
  in
  let* energy = float_bound_exclusive 50. in
  return
    {
      Interp.kind;
      task;
      timestamp = Artemis.Time.of_ms (100 * i);
      path;
      dep_data;
      energy_mj = energy;
    }

let trace = list_size (int_range 5 40) (event 1) (* timestamps varied below *)

let trace =
  let* evs = trace in
  return (List.mapi (fun i ev -> { ev with Interp.timestamp = Time.of_ms (100 * (i + 1)) }) evs)

(* --- counterexample printers (QCheck reports are useless without them) --- *)

let show_event (ev : Interp.event) =
  Printf.sprintf "%s %s @%.1fms path=%d dep=[%s] e=%.3f"
    (match ev.Interp.kind with Interp.Start -> "start" | Interp.End -> "end")
    ev.Interp.task
    (Time.to_ms_f ev.Interp.timestamp)
    ev.Interp.path
    (String.concat ";"
       (List.map (fun (k, v) -> Printf.sprintf "%s=%.3f" k v) ev.Interp.dep_data))
    ev.Interp.energy_mj

let show_trace evs = String.concat "\n" (List.map show_event evs)

let show_machine_trace (m, evs) =
  Fsm.Printer.to_string m ^ "\n--- trace ---\n" ^ show_trace evs

(* --- the differential properties --- *)

type outcome = Failures of Interp.failure list | Err of string

let step_catch f =
  match f () with
  | failures -> Failures failures
  | exception Interp.Runtime_error msg -> Err msg

let equal_outcome a b =
  match (a, b) with
  | Failures x, Failures y -> x = y
  | Err x, Err y -> String.equal x y
  | Failures _, Err _ | Err _, Failures _ -> false

(* memory-backed stores: pure engine equivalence *)
let memory_equivalence =
  QCheck.Test.make ~name:"table = interpreted (memory stores)" ~count:700
    (QCheck.make ~print:show_machine_trace QCheck.Gen.(pair machine trace))
    (fun (m, evs) ->
      let t = Table.compile m in
      let istore = Interp.memory_store m in
      let tinst = Table.instance t in
      List.for_all
        (fun ev ->
          let ri = step_catch (fun () -> Interp.step m istore ev) in
          let rt = step_catch (fun () -> Table.step t tinst ev) in
          equal_outcome ri rt
          && String.equal
               (istore.Interp.get_state ())
               (Table.state_name t (Table.current_state tinst))
          && List.for_all
               (fun (v : F.var_decl) ->
                 F.same_value
                   (istore.Interp.get v.F.var_name)
                   (Table.read_var t tinst (Table.var_id t v.F.var_name)))
               var_pool)
        evs)

(* NVM-backed monitors with power failures injected between events, plus
   occasional path-restart re-initialisation: the deployed form of both
   engines must stay in lockstep *)
let nvm_equivalence =
  QCheck.Test.make
    ~name:"table = interpreted (NVM monitors, power failures)" ~count:500
    (QCheck.make
       ~print:(fun (m, evs, noise) ->
         show_machine_trace (m, evs)
         ^ "\n--- noise ---\n"
         ^ String.concat "," (List.map string_of_int noise))
       QCheck.Gen.(
         triple machine trace (list_size (int_range 5 40) (int_bound 9))))
    (fun (m, evs, noise) ->
      let nvm_i = Nvm.create () and nvm_t = Nvm.create () in
      let table = Table.compile m in
      let mon_i = Monitor.create ~engine:Monitor.Interpreted nvm_i table in
      let mon_t = Monitor.create ~engine:Monitor.Table nvm_t table in
      let agree () =
        String.equal (Monitor.current_state mon_i) (Monitor.current_state mon_t)
        && List.for_all
             (fun (v : F.var_decl) ->
               F.same_value
                 (Monitor.read_var mon_i v.F.var_name)
                 (Monitor.read_var mon_t v.F.var_name))
             var_pool
      in
      let rec go evs noise =
        match evs with
        | [] -> true
        | ev :: evs ->
            let n, noise =
              match noise with [] -> (0, []) | n :: rest -> (n, rest)
            in
            (* inject identical disturbances into both deployments *)
            if n = 9 then begin
              Nvm.power_failure nvm_i;
              Nvm.power_failure nvm_t
            end
            else if n = 8 then begin
              Monitor.reinitialize mon_i;
              Monitor.reinitialize mon_t
            end;
            let ri = step_catch (fun () -> Monitor.step mon_i ev) in
            let rt = step_catch (fun () -> Monitor.step mon_t ev) in
            equal_outcome ri rt && agree () && go evs noise
      in
      go evs noise)

(* suite-level: indexed dispatch delivers exactly what stepping every
   monitor would *)
let suite_dispatch_equivalence =
  QCheck.Test.make ~name:"indexed step_all = unindexed step_all" ~count:100
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 1 4) machine) trace))
    (fun (ms, evs) ->
      let rename i (m : F.machine) =
        { m with F.machine_name = Printf.sprintf "m%d" i }
      in
      let ms = List.mapi rename ms in
      let s_idx = Suite.create (Nvm.create ()) ms in
      let s_ref = Suite.create (Nvm.create ()) ms in
      let s_int = Suite.create ~engine:Monitor.Interpreted (Nvm.create ()) ms in
      List.for_all
        (fun ev ->
          let ri = step_catch (fun () -> Suite.step_all s_idx ev) in
          let rr = step_catch (fun () -> Suite.step_all_unindexed s_ref ev) in
          let rn = step_catch (fun () -> Suite.step_all s_int ev) in
          equal_outcome ri rr && equal_outcome ri rn)
        evs)

(* whole-runtime differential across monitor deployments: for every
   deployment style of Section 7 (separate module, inlined, external
   wireless), running a fuzzed property under the Table engine on an
   intermittently powered device must reproduce the Interpreted engine's
   run exactly - same trace, same outcome, same final monitor FRAM *)
let deployment =
  oneofl
    [
      Runtime.Separate_module;
      Runtime.Inlined;
      Runtime.default_external_wireless;
    ]

let deployment_name = function
  | Runtime.Separate_module -> "separate"
  | Runtime.Inlined -> "inlined"
  | Runtime.External_wireless _ -> "external"

let runtime_deployment_equivalence =
  QCheck.Test.make
    ~name:"table = interpreted (full runtime, all deployments)"
    ~count:60
    (QCheck.make
       ~print:(fun (m, d) ->
         Printf.sprintf "%s / %s" (deployment_name d)
           (Fsm.Printer.to_string m))
       QCheck.Gen.(pair machine deployment))
    (fun (m, depl) ->
      (* one task per path so Fail(_, Some 2) always names a real path;
         task c is heavy enough that a partially charged capacitor fails
         it, exercising the monitorFinalize resume path *)
      let build_app () =
        let mk name mw v =
          Task.make ~name ~duration:(Time.of_ms 100) ~power:(Energy.mw mw)
            ~monitored:[ ("d", fun () -> v) ]
            ()
        in
        Task.app ~name:"fuzz-app"
          [
            { Task.index = 1; tasks = [ mk "a" 2. 1.5 ] };
            { Task.index = 2; tasks = [ mk "b" 4. 2.5 ] };
            { Task.index = 3; tasks = [ mk "c" 26. 3.5 ] };
          ]
      in
      let config =
        {
          Runtime.default_config with
          max_loop_iterations = 1500;
          deployment = depl;
        }
      in
      let exec engine =
        let device = Helpers.tiny_device ~usable_mj:3. () in
        let suite = Suite.create ~engine (Device.nvm device) [ m ] in
        match Runtime.run ~config device (build_app ()) suite with
        | stats ->
            ( Failures [],
              Some (stats.Stats.outcome, Log.render_timeline (Device.log device)),
              Suite.monitors suite )
        | exception Interp.Runtime_error msg -> (Err msg, None, Suite.monitors suite)
      in
      let oi, ri, msi = exec Monitor.Interpreted in
      let ot, rt, mst = exec Monitor.Table in
      let monitors_agree =
        List.for_all2
          (fun a b ->
            String.equal (Monitor.current_state a) (Monitor.current_state b)
            && List.for_all
                 (fun (v : F.var_decl) ->
                   F.same_value
                     (Monitor.read_var a v.F.var_name)
                     (Monitor.read_var b v.F.var_name))
                 var_pool)
      in
      equal_outcome oi ot && ri = rt && monitors_agree msi mst)

(* backend matrix differential (PR 10): for a random scenario, monitor
   engine, seed and injected power-failure schedule over the shared
   RUNTIME sites (rt.*, ids [6,19] - scheduler-loop bookkeeping every
   backend drives identically), all five task-execution backends must
   produce the immortal reference's verdict/action stream, duplicates
   included.  Runtime-site occurrences are semantic instants, so the
   same schedule crashes every backend at the same point of the same
   attempt; NVM-site schedules would not be comparable (backends differ
   in how many cell writes a commit costs, so occurrence k lands at
   different instants - a crash inside alpaca's sealed verdict window
   legitimately replays a verdict the reference never duplicates).
   QCheck shrinks the schedule list on divergence, so a failure
   collapses to a minimal (scenario, engine, seed, schedule)
   reproducer. *)

module FS = Artemis_faultsim.Faultsim
module FScenario = Artemis_faultsim.Scenario

let matrix_scenarios =
  [ FScenario.quickstart; FScenario.health; FScenario.stale_read ]

let matrix_engines = List.map snd Monitor.engines

let semantic_stream device =
  List.filter_map
    (fun (e : Event.timed) ->
      match e.Event.event with
      | Event.Monitor_verdict _ | Event.Runtime_action _ ->
          Some (Event.to_string e.Event.event)
      | _ -> None)
    (Log.events (Device.log device))

(* one injected run: a fresh build of [scenario] under [backend], with
   the schedule consumed faultsim-style (occurrence counted since the
   previous injection, each entry firing once) *)
let injected_verdicts scenario backend ~seed schedule =
  let built =
    (FScenario.with_backend backend ~name:scenario.FScenario.name
       ~description:scenario.FScenario.description scenario)
      .FScenario.build ~engine:None ~seed
  in
  let since = Array.make FS.site_count 0 in
  let remaining = ref schedule in
  let probe label =
    let id = FS.site_id label in
    let occ = since.(id) in
    since.(id) <- occ + 1;
    match !remaining with
    | (s, o) :: rest when s = id && o = occ ->
        remaining := rest;
        Array.fill since 0 FS.site_count 0;
        raise (Nvm.Injected_failure label)
    | _ -> ()
  in
  let result =
    Runtime.run_instrumented ~config:built.FScenario.config
      ~adaptations:built.FScenario.adaptations
      ~backend:built.FScenario.backend ~probe built.FScenario.device
      built.FScenario.app built.FScenario.suite
  in
  (semantic_stream built.FScenario.device,
   (result.Runtime.stats.Stats.outcome = Stats.Completed))

let rt_first = List.length Nvm.injection_sites
let rt_count = List.length Runtime.injection_sites
let clamp_entry (s, o) = (rt_first + (s mod rt_count), o mod 4)

let backend_matrix_print ((s_i, e_i, seed), schedule) =
  Printf.sprintf "scenario=%s engine=%s seed=%d schedule=%s"
    (List.nth matrix_scenarios (s_i mod 3)).FScenario.name
    (fst (List.nth Monitor.engines (e_i mod List.length Monitor.engines)))
    seed
    (FS.schedule_to_string (List.map clamp_entry schedule))

let backend_matrix_equivalence =
  QCheck.Test.make
    ~name:"all backends produce the reference verdict stream under injection"
    ~count:30
    QCheck.(
      set_print backend_matrix_print
        (pair
           (triple small_nat small_nat small_nat)
           (small_list (pair small_nat small_nat))))
    (fun ((s_i, e_i, seed), schedule) ->
      let scenario = List.nth matrix_scenarios (s_i mod 3) in
      let engine =
        List.nth matrix_engines (e_i mod List.length matrix_engines)
      in
      let scenario = FScenario.with_engine engine scenario in
      (* clamp the raw schedule onto the shared runtime sites *)
      let schedule = List.map clamp_entry schedule in
      let reference, ref_done =
        injected_verdicts scenario Backend.immortal ~seed schedule
      in
      ref_done
      && List.for_all
           (fun b ->
             let verdicts, completed =
               injected_verdicts scenario b ~seed schedule
             in
             completed && verdicts = reference)
           (List.tl Backends.all))

let suite =
  [
    QCheck_alcotest.to_alcotest memory_equivalence;
    QCheck_alcotest.to_alcotest nvm_equivalence;
    QCheck_alcotest.to_alcotest suite_dispatch_equivalence;
    QCheck_alcotest.to_alcotest runtime_deployment_equivalence;
    QCheck_alcotest.to_alcotest backend_matrix_equivalence;
  ]
