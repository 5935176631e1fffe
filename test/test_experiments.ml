(* Shape assertions over the reproduced evaluation (Section 5): these are
   the claims EXPERIMENTS.md records as reproduced. *)

open Artemis
open Artemis_experiments

let test_fig12_shape () =
  let rows = Fig12.run ~delays:[ 1; 6 ] () in
  let short = List.hd rows and long = List.nth rows 1 in
  (* short delays: both systems complete, nearly identical time *)
  Alcotest.(check bool) "artemis completes at 1min" true
    (Stats.completed short.Fig12.artemis);
  Alcotest.(check bool) "mayfly completes at 1min" true
    (Stats.completed short.Fig12.mayfly);
  let a = Config.minutes short.Fig12.artemis
  and m = Config.minutes short.Fig12.mayfly in
  Alcotest.(check bool) "parity at 1min" true (Float.abs (a -. m) /. m < 0.05);
  (* beyond the MITD limit: ARTEMIS completes, Mayfly does not *)
  Alcotest.(check bool) "artemis completes at 6min" true
    (Stats.completed long.Fig12.artemis);
  Alcotest.(check bool) "mayfly DNF at 6min" false
    (Stats.completed long.Fig12.mayfly)

let test_fig12_monotone () =
  let rows = Fig12.run ~delays:[ 1; 2; 3 ] () in
  let times = List.map (fun r -> Config.minutes r.Fig12.artemis) rows in
  match times with
  | [ a; b; c ] ->
      Alcotest.(check bool) "execution time grows with charging time" true
        (a < b && b < c)
  | _ -> Alcotest.fail "three rows expected"

let test_fig13_story () =
  let r = Fig13.run ~delay_min:6 () in
  Alcotest.(check bool) "completed" true (Stats.completed r.Fig13.stats);
  Alcotest.(check int) "exactly 3 MITD attempts" 3 r.Fig13.mitd_violations;
  Alcotest.(check int) "2 restarts before the skip" 2 r.Fig13.path2_restarts;
  Alcotest.(check bool) "maxAttempt skipped path 2" true r.Fig13.path2_skipped;
  Alcotest.(check bool) "timeline non-empty" true (String.length r.Fig13.timeline > 0)

let test_fig14_fig15_overheads () =
  match Fig14.run () with
  | [ artemis; mayfly ] ->
      Alcotest.(check string) "row order" "ARTEMIS" artemis.Fig14.system;
      (* identical task sequence: same app time *)
      Alcotest.(check (float 1e-6)) "same app seconds" mayfly.Fig14.app_s
        artemis.Fig14.app_s;
      (* Figure 14: overheads negligible next to app time *)
      Alcotest.(check bool) "overheads are ms-scale" true
        (artemis.Fig14.runtime_ms +. artemis.Fig14.monitor_ms
        < artemis.Fig14.app_s *. 1000. /. 10.);
      (* Figure 15: ARTEMIS slightly above Mayfly; Mayfly has no monitor *)
      Alcotest.(check bool) "ARTEMIS total overhead higher" true
        (artemis.Fig14.runtime_ms +. artemis.Fig14.monitor_ms
        > mayfly.Fig14.runtime_ms +. mayfly.Fig14.monitor_ms);
      Alcotest.(check (float 1e-9)) "mayfly monitor overhead zero" 0.
        mayfly.Fig14.monitor_ms;
      Alcotest.(check bool) "ARTEMIS runtime leaner than Mayfly's fused loop" true
        (artemis.Fig14.runtime_ms > 0. && mayfly.Fig14.runtime_ms > 0.)
  | _ -> Alcotest.fail "two rows expected"

let test_fig16_energy_shape () =
  let scenarios =
    [
      { Fig16.label = "continuous"; supply = Config.Continuous };
      { Fig16.label = "1 min"; supply = Config.Intermittent (Time.of_min 1) };
      { Fig16.label = "10 min"; supply = Config.Intermittent (Time.of_min 10) };
    ]
  in
  match Fig16.run ~scenarios () with
  | [ continuous; short; long ] ->
      (* parity between systems at short delays *)
      let a1 = Config.millijoules short.Fig16.artemis
      and m1 = Config.millijoules short.Fig16.mayfly in
      Alcotest.(check bool) "parity at 1min" true (Float.abs (a1 -. m1) /. m1 < 0.05);
      (* ARTEMIS at long delays: roughly 3x continuous (paper: "three
         times higher"), bounded *)
      let ratio =
        Config.millijoules long.Fig16.artemis
        /. Config.millijoules continuous.Fig16.artemis
      in
      Alcotest.(check bool) "ARTEMIS ~3x continuous" true (ratio > 2. && ratio < 4.);
      (* Mayfly at long delays: unbounded (DNF), burned more than ARTEMIS *)
      Alcotest.(check bool) "mayfly DNF" false (Stats.completed long.Fig16.mayfly);
      Alcotest.(check bool) "mayfly burned more" true
        (Config.millijoules long.Fig16.mayfly > Config.millijoules long.Fig16.artemis)
  | _ -> Alcotest.fail "three rows expected"

let test_table2_orderings () =
  let r = Table2.run () in
  Alcotest.(check bool) "separation: ARTEMIS runtime FRAM < Mayfly FRAM" true
    (r.Table2.artemis_runtime_fram < r.Table2.mayfly_runtime_fram);
  Alcotest.(check bool) "monitors are the largest FRAM share" true
    (r.Table2.monitor_fram > r.Table2.mayfly_runtime_fram);
  Alcotest.(check int) "runtime RAM scratch (2 B, as Table 2)" 2
    r.Table2.artemis_runtime_ram;
  Alcotest.(check int) "mayfly RAM scratch" 2 r.Table2.mayfly_runtime_ram;
  Alcotest.(check int) "monitor needs no RAM" 0 r.Table2.monitor_ram;
  Alcotest.(check bool) "monitor .text estimated" true (r.Table2.monitor_text > 1_000)

let test_table3_artemis_unique () =
  let open Table3 in
  Alcotest.(check string) "last row" "ARTEMIS" artemis_entry.name;
  let open_spec =
    List.filter (fun e -> e.spec = Open_property_language) entries
  in
  Alcotest.(check int) "only ARTEMIS has an open property language" 1
    (List.length open_spec);
  let monitors = List.filter (fun e -> e.checking = By_generated_monitors) entries in
  Alcotest.(check int) "only ARTEMIS generates monitors" 1 (List.length monitors)

let test_renders_are_tables () =
  let is_table s = String.length s > 0 && s.[0] = '+' in
  Alcotest.(check bool) "fig12" true (is_table (Fig12.render (Fig12.run ~delays:[ 1 ] ())));
  let fig14 = Fig14.run () in
  Alcotest.(check bool) "fig14" true (is_table (Fig14.render fig14));
  Alcotest.(check bool) "fig15" true (is_table (Fig14.render_overheads fig14));
  Alcotest.(check bool) "table2" true (is_table (Table2.render (Table2.run ())));
  Alcotest.(check bool) "table3" true (is_table (Table3.render ()))

let test_fever_emergency_variant () =
  (* temp_base out of [36,38]: dpData fires completePath on path 1 *)
  let run = Config.run_health ~temp_base:39.4 Config.Artemis_runtime Config.Continuous in
  Alcotest.(check bool) "completed" true (Stats.completed run.Config.stats);
  Alcotest.(check bool) "avgTemp reflects the fever" true
    (run.Config.handles.Health_app.read_avg_temp () > 38.);
  Alcotest.(check int) "monitoring suspended on path 1" 1
    (Log.count (Device.log run.Config.device) (function
      | Event.Monitoring_suspended { path = 1 } -> true
      | _ -> false))

let test_deployment_ablation () =
  match Ablation.deployments () with
  | [ separate; inlined; external_ ] ->
      (* all three deployments preserve the monitoring semantics *)
      List.iter
        (fun (r : Ablation.deployment_row) ->
          Alcotest.(check bool) (r.Ablation.label ^ " completes") true
            (Stats.completed r.Ablation.intermittent))
        [ separate; inlined; external_ ];
      (* inlined: less monitor time, more code *)
      Alcotest.(check bool) "inlined is faster" true
        Time.(inlined.Ablation.continuous.Stats.monitor_overhead
              < separate.Ablation.continuous.Stats.monitor_overhead);
      Alcotest.(check bool) "inlined is bigger" true
        (inlined.Ablation.est_text_bytes > separate.Ablation.est_text_bytes);
      (* external: tiny local footprint, radio-dominated energy *)
      Alcotest.(check bool) "external smallest footprint" true
        (external_.Ablation.est_text_bytes < separate.Ablation.est_text_bytes);
      Alcotest.(check bool) "external burns the most monitor energy" true
        (Energy.to_uj external_.Ablation.continuous.Stats.energy_monitor
        > 10. *. Energy.to_uj separate.Ablation.continuous.Stats.energy_monitor)
  | _ -> Alcotest.fail "three deployments expected"

let test_collect_ablation () =
  match Ablation.collect_semantics () with
  | [ accumulate; reset ] ->
      Alcotest.(check bool) "accumulate completes" true
        (Stats.completed accumulate.Ablation.stats);
      Alcotest.(check bool) "reset-on-fail never converges" false
        (Stats.completed reset.Ablation.stats);
      Alcotest.(check int) "exactly 10 samples suffice when accumulating" 10
        accumulate.Ablation.body_temp_runs
  | _ -> Alcotest.fail "two rows expected"

let test_checkpoint_baseline () =
  match Baseline_checkpoint.run ~delays:[ 1; 6 ] () with
  | [ continuous; short; long ] ->
      Alcotest.(check bool) "checkpointed completes on continuous power" true
        (Stats.completed continuous.Baseline_checkpoint.checkpointed);
      Alcotest.(check bool) "checkpointed completes at 1 min" true
        (Stats.completed short.Baseline_checkpoint.checkpointed);
      (* bookkeeping-only overhead: below ARTEMIS's property checking *)
      Alcotest.(check bool) "less overhead than ARTEMIS" true
        Time.(Stats.overhead_time continuous.Baseline_checkpoint.checkpointed
              < Stats.overhead_time continuous.Baseline_checkpoint.artemis);
      (* the family's weakness: no bounded attempts *)
      Alcotest.(check bool) "checkpointed DNF at 6 min" false
        (Stats.completed long.Baseline_checkpoint.checkpointed);
      Alcotest.(check bool) "ARTEMIS still completes" true
        (Stats.completed long.Baseline_checkpoint.artemis)
  | _ -> Alcotest.fail "three rows expected"

let test_timekeeper_sweep () =
  match Timekeeper_sweep.run () with
  | [ ideal; wide; narrow; tiny ] ->
      Alcotest.(check bool) "ideal enforces MITD" true
        ideal.Timekeeper_sweep.mitd_enforced;
      Alcotest.(check bool) "10 min ceiling still enforces" true
        wide.Timekeeper_sweep.mitd_enforced;
      (* ceilings below the 5 min window hide the outage *)
      Alcotest.(check bool) "2 min ceiling misses staleness" false
        narrow.Timekeeper_sweep.mitd_enforced;
      Alcotest.(check bool) "30 s ceiling misses staleness" false
        tiny.Timekeeper_sweep.mitd_enforced;
      (* the miss shows up as an extra (stale) transmission *)
      Alcotest.(check int) "ideal drops the stale transmission" 2
        ideal.Timekeeper_sweep.transmissions;
      Alcotest.(check int) "narrow delivers stale data" 3
        narrow.Timekeeper_sweep.transmissions
  | _ -> Alcotest.fail "four rows expected"

let test_harvester_study () =
  match Harvester_study.run ~rates_uw:[ 1000.; 40. ] () with
  | [ rich; starved ] ->
      (* plentiful harvest: both complete, no MITD trouble *)
      Alcotest.(check bool) "both complete when harvest is plentiful" true
        (Stats.completed rich.Harvester_study.artemis
        && Stats.completed rich.Harvester_study.mayfly);
      (* starved harvest: emergent delays exceed the window on every
         retry - Mayfly never terminates, ARTEMIS still does *)
      Alcotest.(check bool) "ARTEMIS completes when starved" true
        (Stats.completed starved.Harvester_study.artemis);
      Alcotest.(check bool) "Mayfly DNF when starved" false
        (Stats.completed starved.Harvester_study.mayfly);
      (match starved.Harvester_study.mean_delay with
      | Some d ->
          Alcotest.(check bool) "emergent delay beyond the 5 min window" true
            Time.(d > Time.of_min 5)
      | None -> Alcotest.fail "expected charging delays")
  | _ -> Alcotest.fail "two rows expected"

let test_scalability () =
  match Scalability.run ~factors:[ 1; 4 ] () with
  | [ base; quadrupled ] ->
      (* the application is untouched: identical app time *)
      Alcotest.(check (float 1e-9)) "app time unchanged" base.Scalability.app_s
        quadrupled.Scalability.app_s;
      (* overhead grows sub-linearly in the monitor count (shared
         dispatch) but clearly grows, and FRAM is per-monitor *)
      let ratio = quadrupled.Scalability.monitor_ms /. base.Scalability.monitor_ms in
      Alcotest.(check bool) "overhead grows with the property set" true
        (ratio > 2. && ratio < 4.5);
      Alcotest.(check bool) "FRAM grows with the property set" true
        (quadrupled.Scalability.monitor_fram > 3 * base.Scalability.monitor_fram)
  | _ -> Alcotest.fail "two rows expected"

let test_non_watching_flat () =
  match Scalability.run_non_watching ~extras:[ 0; 32 ] () with
  | [ base; piled ] ->
      (* the runtime never charges a monitor whose tasks the
         application does not run: piling them on must not grow the
         monitor overhead, only the FRAM footprint *)
      Alcotest.(check bool) "overhead stays flat" true
        (piled.Scalability.nw_monitor_ms
        <= 1.2 *. base.Scalability.nw_monitor_ms);
      Alcotest.(check bool) "FRAM still grows" true
        (piled.Scalability.nw_monitor_fram
        > 2 * base.Scalability.nw_monitor_fram)
  | _ -> Alcotest.fail "two rows expected"

let test_yield_study () =
  match Yield_study.run ~rounds:5 ~rates_uw:[ 500.; 25. ] () with
  | [ rich; poor ] ->
      Alcotest.(check bool) "both finish their rounds" true
        (Stats.completed rich.Yield_study.stats
        && Stats.completed poor.Yield_study.stats);
      Alcotest.(check int) "rich rounds" 5 rich.Yield_study.rounds;
      Alcotest.(check bool) "yield degrades with harvest" true
        (rich.Yield_study.uplinks_per_hour > poor.Yield_study.uplinks_per_hour);
      Alcotest.(check bool) "poor still delivers" true (poor.Yield_study.uplinks > 0)
  | _ -> Alcotest.fail "two rows expected"

let suite =
  [
    Alcotest.test_case "fig12: crossover at the MITD limit" `Slow test_fig12_shape;
    Alcotest.test_case "fig12: monotone in charging time" `Slow test_fig12_monotone;
    Alcotest.test_case "fig13: 3 attempts then skip" `Slow test_fig13_story;
    Alcotest.test_case "fig14/15: overhead breakdown" `Quick
      test_fig14_fig15_overheads;
    Alcotest.test_case "fig16: energy shape" `Slow test_fig16_energy_shape;
    Alcotest.test_case "table2: memory orderings" `Quick test_table2_orderings;
    Alcotest.test_case "table3: ARTEMIS row unique" `Quick test_table3_artemis_unique;
    Alcotest.test_case "renders" `Quick test_renders_are_tables;
    Alcotest.test_case "fever variant (completePath)" `Quick
      test_fever_emergency_variant;
    Alcotest.test_case "ablation: monitor deployments" `Slow
      test_deployment_ablation;
    Alcotest.test_case "ablation: collect semantics" `Slow test_collect_ablation;
    Alcotest.test_case "baseline: checkpointed system" `Slow
      test_checkpoint_baseline;
    Alcotest.test_case "timekeeper quality sweep" `Slow test_timekeeper_sweep;
    Alcotest.test_case "harvester study" `Slow test_harvester_study;
    Alcotest.test_case "scalability in property count" `Slow test_scalability;
    Alcotest.test_case "non-watching properties cost nothing at runtime" `Slow
      test_non_watching_flat;
    Alcotest.test_case "yield study (reactive rounds)" `Slow test_yield_study;
  ]
