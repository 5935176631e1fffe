(* PR 9: the static energy-admissibility analysis and its satellites.

   - Cost_model.cycles_to_time must round up (a truncated conversion
     under-bills every monitor call at MCU frequencies that don't divide
     the cycle count evenly);
   - Charging_policy.recharge From_harvester must actually reach the
     turn-on threshold (the integral inversion rounds the charging
     window down by a fraction of a sample);
   - Fleet.percentile must reject non-finite samples instead of letting
     Float.compare sort NaN above every real number;
   - the classification/admission contract on the seeded livelock-prop
     scenario;
   - the bound-domination harness: the static per-suite call bound must
     dominate every Monitor_work energy any single monitor-call attempt
     actually draws, across scenarios x engines x depth-1 injected-failure
     schedules, and on fuzzed machines. *)

open Artemis
module Ea = Energy_analysis
module Scenario = Artemis_faultsim.Scenario

(* --- cycles_to_time rounds up --- *)

let model_at hz = { Cost_model.default with Cost_model.mcu_frequency_hz = hz }

let test_cycles_to_time_regressions () =
  (* 180 cycles @ 8 MHz = 22.5 us: truncation said 22, the bound needs 23 *)
  Alcotest.check Helpers.time "180c @ 8 MHz rounds up" (Time.of_us 23)
    (Cost_model.cycles_to_time (model_at 8_000_000) 180);
  Alcotest.check Helpers.time "180c @ 16 MHz rounds up" (Time.of_us 12)
    (Cost_model.cycles_to_time (model_at 16_000_000) 180);
  Alcotest.check Helpers.time "400c @ 16 MHz" (Time.of_us 25)
    (Cost_model.cycles_to_time (model_at 16_000_000) 400);
  (* the default 1 MHz model is exact: cycles = microseconds, so every
     pre-PR9 trace stays byte-identical *)
  List.iter
    (fun c ->
      Alcotest.check Helpers.time
        (Printf.sprintf "%dc @ 1 MHz unchanged" c)
        (Time.of_us c)
        (Cost_model.cycles_to_time Cost_model.default c))
    [ 0; 1; 119; 120; 180; 400; 999_999 ]

let cycles_to_time_is_ceiling =
  QCheck.Test.make ~name:"cycles_to_time = ceil(cycles/f), never truncates"
    ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_range 1_000 256_000_000))
    (fun (cycles, hz) ->
      let us = Time.to_us (Cost_model.cycles_to_time (model_at hz) cycles) in
      (* smallest integer microsecond count covering the cycles *)
      us * hz >= cycles * 1_000_000
      && (us = 0 || (us - 1) * hz < cycles * 1_000_000))

(* --- recharge reaches the turn-on threshold --- *)

let drained_capacitor () =
  let c =
    Capacitor.create ~capacity:(Energy.uj 2.0) ~on_threshold:(Energy.uj 1.9)
      ~off_threshold:(Energy.uj 0.4) ()
  in
  ignore (Capacitor.drain c (Energy.uj 1.0));
  c

let test_recharge_reaches_threshold () =
  (* seeded rounding regression: a 1.0 uJ deficit at 3 uW inverts to
     333333.33... us; the truncated window harvests 0.999999 uJ and the
     old code booted the device below its turn-on threshold *)
  let c = drained_capacitor () in
  let policy = Charging_policy.From_harvester (Harvester.Constant (Energy.uw 3.)) in
  (match Charging_policy.recharge policy ~now:Time.zero ~capacitor:c with
  | None -> Alcotest.fail "constant harvester can always recharge"
  | Some off_time ->
      Alcotest.(check bool) "turn-on threshold reached" true
        (Capacitor.can_turn_on c);
      Alcotest.(check bool) "charging took time" true
        (Time.compare off_time Time.zero > 0));
  (* permanent starvation still reports None: a trace that ends at zero
     power must not be reported as a successful recharge *)
  let c = drained_capacitor () in
  let dead =
    Charging_policy.From_harvester
      (Harvester.Trace [| (Time.zero, Energy.uw 0.) |])
  in
  Alcotest.(check bool) "dead harvester starves" true
    (Charging_policy.recharge dead ~now:Time.zero ~capacitor:c = None)

let recharge_post_level =
  QCheck.Test.make
    ~name:"recharge Some => capacitor at turn-on threshold" ~count:300
    QCheck.(
      triple (float_range 0.5 50.) (float_range 0.1 0.9) (float_range 0.7 500.))
    (fun (capacity, drain_frac, rate_uw) ->
      let c =
        Capacitor.create ~capacity:(Energy.uj capacity)
          ~on_threshold:(Energy.uj (capacity *. 0.9))
          ~off_threshold:(Energy.uj (capacity *. 0.1))
          ()
      in
      ignore (Capacitor.drain c (Energy.uj (capacity *. drain_frac)));
      let policy =
        Charging_policy.From_harvester (Harvester.Constant (Energy.uw rate_uw))
      in
      match Charging_policy.recharge policy ~now:(Time.of_ms 5) ~capacitor:c with
      | None -> false (* a constant positive rate always recharges *)
      | Some _ -> Capacitor.can_turn_on c)

(* --- percentile rejects non-finite samples --- *)

let test_percentile_rejects_non_finite () =
  List.iter
    (fun bad ->
      Alcotest.check_raises "non-finite sample"
        (Invalid_argument "Fleet.percentile: non-finite sample") (fun () ->
          ignore (Fleet.percentile [| 1.0; bad; 3.0 |] 0.5)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check (float 1e-9))
    "finite samples still work" 2.0
    (Fleet.percentile [| 3.0; 1.0; 2.0 |] 0.5)

(* --- the seeded livelock-prop scenario: classification + admission --- *)

let build_livelock () = Scenario.livelock_prop.Scenario.build ~engine:None ~seed:42

(* The deployed suite's own tables, and every scheduled payload's tables
   as the device's validate step lowers them. *)
let deployed_tables (b : Scenario.built) =
  List.map Monitor.table (Suite.monitors b.Scenario.suite)

let payload_tables (b : Scenario.built) =
  List.concat_map
    (fun (_at, (u : Adapt.update)) ->
      match u.Adapt.payload with
      | None -> []
      | Some payload -> (
          match Adapt.payload_tables ~app:b.Scenario.app payload with
          | Ok tables -> tables
          | Error e -> Alcotest.failf "payload: %s" e))
    b.Scenario.adaptations

let test_livelock_prop_classification () =
  let b = build_livelock () in
  let model = b.Scenario.config.Runtime.cost_model in
  let deployment = b.Scenario.config.Runtime.deployment in
  let budget = Ea.budget_of_device b.Scenario.device in
  (* the deployed property fits the 1.0 uJ budget *)
  List.iter
    (fun (e : Ea.entry) ->
      Alcotest.(check bool)
        (e.Ea.e_bound.Ea.b_property ^ " progresses")
        true
        (e.Ea.e_class = Ea.Progresses))
    (Ea.analyze ~deployment ~model ~budget ~origin:"deployed"
       (deployed_tables b));
  (* the scheduled OTA payload's 20-store body cannot *)
  let heavy = payload_tables b in
  Alcotest.(check bool) "payload present" true (heavy <> []);
  List.iter
    (fun (e : Ea.entry) ->
      Alcotest.(check bool)
        (e.Ea.e_bound.Ea.b_property ^ " may livelock")
        true
        (e.Ea.e_class = Ea.May_livelock);
      Alcotest.(check bool) "bound exceeds usable budget" true
        Energy.(budget.Ea.usable < e.Ea.e_bound.Ea.b_call_energy))
    (Ea.analyze ~deployment ~model ~budget ~origin:"update #1" heavy);
  match Ea.admit ~deployment ~model ~budget heavy with
  | Ok () -> Alcotest.fail "over-budget payload admitted"
  | Error reason ->
      Alcotest.(check bool) "reason names the check" true
        (String.length reason >= 19
        && String.sub reason 0 19 = "energy-inadmissible")

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_adapt_rejects_inadmissible_update () =
  let b = build_livelock () in
  let model = b.Scenario.config.Runtime.cost_model in
  let deployment = b.Scenario.config.Runtime.deployment in
  let budget = Ea.budget_of_device b.Scenario.device in
  let admission = Ea.admit ~deployment ~model ~budget in
  let mgr =
    Adapt.create ~admission
      (Device.nvm b.Scenario.device)
      ~app:b.Scenario.app b.Scenario.suite
  in
  let _, update = List.hd b.Scenario.adaptations in
  ignore (Adapt.stage mgr update);
  (match Adapt.apply mgr with
  | Adapt.Rejected { id; reason } ->
      Alcotest.(check int) "update id" 1 id;
      Alcotest.(check bool) "energy-inadmissible reason" true
        (contains ~sub:"energy-inadmissible" reason);
      Alcotest.(check bool) "reason names the property" true
        (contains ~sub:"audit_log" reason)
  | Adapt.Applied _ -> Alcotest.fail "over-budget update applied"
  | Adapt.Idle -> Alcotest.fail "nothing staged");
  (* the rejection is terminal: the suite is unchanged and nothing is
     left pending *)
  Alcotest.(check int) "generation unchanged" 0 (Adapt.generation mgr);
  Alcotest.(check bool) "no pending update" true (Adapt.pending_id mgr = None)

(* --- bound domination: static bound >= every measured call attempt --- *)

let engines = List.map snd Monitor.engines

let engine_name e =
  fst (List.find (fun (_, e') -> e' = e) Monitor.engines)

(* The static bound for everything a run could ever execute: the deployed
   suite plus every scheduled OTA payload.  Summing over the superset
   dominates the active suite at any instant (all shares are
   non-negative), so one number covers pre- and post-adaptation calls. *)
let static_bound (b : Scenario.built) =
  let model = b.Scenario.config.Runtime.cost_model in
  let deployment = b.Scenario.config.Runtime.deployment in
  Ea.suite_call_bound ~deployment ~model
    (List.map
       (Ea.property_bound ~deployment ~model)
       (deployed_tables b @ payload_tables b))

(* The device's energy ledger is float-accumulated: an attempt's
   Monitor_work delta is read off a running multi-mJ total, so it
   carries ~1e-12 uJ of rounding noise.  The bound itself is exact in
   the model (External_wireless has zero structural margin to absorb
   the noise), so domination is checked with a ulp-scale allowance. *)
let with_float_slack bound =
  Energy.add bound (Energy.uj (1e-9 +. (1e-12 *. Energy.to_uj bound)))

let check_dominates ~what bound (inst : Runtime.instrumented) =
  if not Energy.(inst.Runtime.max_call_energy <= with_float_slack bound) then
    Alcotest.failf "%s: measured call %.6f uJ exceeds static bound %.6f uJ"
      what
      (Energy.to_uj inst.Runtime.max_call_energy)
      (Energy.to_uj bound)

let run_scenario (sc : Scenario.t) engine ~probe =
  let b = (Scenario.with_engine engine sc).Scenario.build ~engine:None ~seed:42 in
  let inst =
    Runtime.run_instrumented ~config:b.Scenario.config
      ~adaptations:b.Scenario.adaptations ~probe b.Scenario.device
      b.Scenario.app b.Scenario.suite
  in
  (static_bound b, inst)

let test_bound_dominates_uninjected () =
  List.iter
    (fun (sc : Scenario.t) ->
      List.iter
        (fun engine ->
          let bound, inst = run_scenario sc engine ~probe:(fun _ -> ()) in
          check_dominates
            ~what:(Printf.sprintf "%s/%s" sc.Scenario.name (engine_name engine))
            bound inst;
          (* sanity: runs that monitor at all measured something *)
          Alcotest.(check bool)
            (sc.Scenario.name ^ ": some call measured")
            true
            Energy.(Energy.zero < inst.Runtime.max_call_energy))
        engines)
    Scenario.all

(* Depth-1 injected-failure campaign: crash once at the k-th dynamic
   occurrence of each injection site and re-check domination - attempts
   cut short by a power failure must still be covered (a partial attempt
   consumes a prefix of a full one).  Occurrences are capped per site to
   keep the suite fast; every site's first windows are covered on every
   engine. *)
let max_occurrences_per_site = 3

let depth1_campaign (sc : Scenario.t) engine =
  (* baseline hit counts per site label *)
  let hits = Hashtbl.create 32 in
  let counting label =
    Hashtbl.replace hits label (1 + Option.value ~default:0 (Hashtbl.find_opt hits label))
  in
  let bound, inst = run_scenario sc engine ~probe:counting in
  check_dominates
    ~what:(Printf.sprintf "%s/%s baseline" sc.Scenario.name (engine_name engine))
    bound inst;
  Hashtbl.iter
    (fun site n ->
      for occ = 0 to Stdlib.min n max_occurrences_per_site - 1 do
        let seen = ref 0 in
        let probe label =
          if String.equal label site then begin
            let k = !seen in
            incr seen;
            if k = occ then raise (Nvm.Injected_failure site)
          end
        in
        let bound, inst = run_scenario sc engine ~probe in
        check_dominates
          ~what:
            (Printf.sprintf "%s/%s %s@%d" sc.Scenario.name (engine_name engine)
               site occ)
          bound inst
      done)
    hits

let test_bound_dominates_depth1 () =
  List.iter
    (fun engine -> depth1_campaign Scenario.quickstart engine)
    engines;
  (* the micro-budget scenario brown-outs mid-call constantly: the
     injected campaign doubles as a stress of the per-attempt meter *)
  depth1_campaign Scenario.livelock_prop Monitor.Table

(* Fuzzed machines (the differential suite's generator) x engines x
   deployments, with one injected failure at a fuzzed probe instant: the
   per-property bound must dominate whatever the run measures. *)
let fuzzed_bound_domination =
  let deployment_gen =
    QCheck.Gen.oneofl
      [ Runtime.Separate_module; Runtime.Inlined; Runtime.default_external_wireless ]
  in
  let engine_gen = QCheck.Gen.oneofl engines in
  QCheck.Test.make ~name:"static bound dominates fuzzed machines" ~count:60
    (QCheck.make
       ~print:(fun (m, _, engine, crash_at) ->
         Printf.sprintf "%s / crash@%d\n%s" (engine_name engine) crash_at
           (Fsm.Printer.to_string m))
       QCheck.Gen.(
         quad Test_differential.machine deployment_gen engine_gen (int_bound 40)))
    (fun (m, deployment, engine, crash_at) ->
      let mk name mw v =
        Task.make ~name ~duration:(Time.of_ms 100) ~power:(Energy.mw mw)
          ~monitored:[ ("d", fun () -> v) ]
          ()
      in
      let app =
        Task.app ~name:"fuzz-app"
          [
            { Task.index = 1; tasks = [ mk "a" 2. 1.5 ] };
            { Task.index = 2; tasks = [ mk "b" 4. 2.5 ] };
            { Task.index = 3; tasks = [ mk "c" 26. 3.5 ] };
          ]
      in
      let config =
        { Runtime.default_config with max_loop_iterations = 1500; deployment }
      in
      let device = Helpers.tiny_device ~usable_mj:3. () in
      let suite = Suite.create ~engine (Device.nvm device) [ m ] in
      let bound =
        Ea.suite_call_bound ~deployment ~model:config.Runtime.cost_model
          (List.map
             (fun mon ->
               Ea.property_bound ~deployment ~model:config.Runtime.cost_model
                 (Monitor.table mon))
             (Suite.monitors suite))
      in
      let hits = ref 0 in
      let probe _ =
        incr hits;
        if !hits = crash_at then raise (Nvm.Injected_failure "fuzz")
      in
      match Runtime.run_instrumented ~config ~probe device app suite with
      | inst -> Energy.(inst.Runtime.max_call_energy <= with_float_slack bound)
      | exception Fsm.Interp.Runtime_error _ ->
          true (* fuzzed division by zero: no call committed to measure *))

let suite =
  [
    Alcotest.test_case "cycles_to_time: 8/16 MHz regressions" `Quick
      test_cycles_to_time_regressions;
    QCheck_alcotest.to_alcotest cycles_to_time_is_ceiling;
    Alcotest.test_case "recharge reaches the turn-on threshold" `Quick
      test_recharge_reaches_threshold;
    QCheck_alcotest.to_alcotest recharge_post_level;
    Alcotest.test_case "percentile rejects non-finite samples" `Quick
      test_percentile_rejects_non_finite;
    Alcotest.test_case "livelock-prop: classification" `Quick
      test_livelock_prop_classification;
    Alcotest.test_case "livelock-prop: validate rejects the update" `Quick
      test_adapt_rejects_inadmissible_update;
    Alcotest.test_case "bound dominates: all scenarios x engines" `Quick
      test_bound_dominates_uninjected;
    Alcotest.test_case "bound dominates: depth-1 injected failures" `Quick
      test_bound_dominates_depth1;
    QCheck_alcotest.to_alcotest fuzzed_bound_domination;
  ]
