(* The fault-injection engine itself: site numbering, schedule parsing,
   coverage and oracle verdicts of the bounded-exhaustive campaign over
   the quickstart scenario, and byte-identical replay. *)

open Artemis
module F = Artemis_faultsim.Faultsim
module Scenario = Artemis_faultsim.Scenario

let test_site_numbering () =
  Alcotest.(check int)
    "nvm sites, runtime sites, then alpaca sites"
    (List.length Nvm.injection_sites
    + List.length Runtime.injection_sites
    + List.length Alpaca.injection_sites)
    F.site_count;
  Alcotest.(check string) "site 0" "nvm.write.before" F.sites.(0);
  Alcotest.(check string) "first alpaca site" "alpaca.log.before"
    F.sites.(List.length Nvm.injection_sites
             + List.length Runtime.injection_sites);
  List.iteri
    (fun i label ->
      Alcotest.(check int) ("id of " ^ label) i (F.site_id label);
      (* by content: a fresh copy is not physically the label *)
      let copy = String.init (String.length label) (String.get label) in
      Alcotest.(check int) ("id of a copy of " ^ label) i (F.site_id copy))
    (Nvm.injection_sites @ Runtime.injection_sites @ Alpaca.injection_sites);
  let label = F.sites.(0) in
  let n = String.length label in
  List.iter
    (fun bad ->
      Alcotest.check_raises ("unknown " ^ bad) Not_found (fun () ->
          ignore (F.site_id bad)))
    [
      "";
      String.sub label 0 (n - 1);
      (* same length and last character: the lookup's hash collides *)
      String.make (n - 1) 'x' ^ String.sub label (n - 1) 1;
    ]

let test_schedule_roundtrip () =
  let cases = [ []; [ (0, 0) ]; [ (3, 2); (11, 0); (5, 7) ] ] in
  List.iter
    (fun s ->
      match F.schedule_of_string (F.schedule_to_string s) with
      | Ok s' -> Alcotest.(check bool) "roundtrip" true (s = s')
      | Error msg -> Alcotest.fail msg)
    cases;
  (match F.parse_replay (F.replay_line ~seed:99 [ (4, 1) ]) with
  | Ok (seed, s) ->
      Alcotest.(check int) "seed" 99 seed;
      Alcotest.(check bool) "schedule" true (s = [ (4, 1) ])
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (Result.is_error (F.schedule_of_string bad)))
    [ "x"; "1@"; "@2"; "99@0"; "1@-3" ]

(* the rt.adapt.* sites only fire in scenarios with a scheduled update;
   the alpaca.* sites only fire under the Alpaca backend *)
let is_adapt_site i = List.mem F.sites.(i) Adapt.injection_sites
let is_alpaca_site i = List.mem F.sites.(i) Alpaca.injection_sites

let test_baseline_clean () =
  let r = F.run_schedule Scenario.quickstart ~seed:42 [] in
  Alcotest.(check string) "completes" "completed" r.F.outcome;
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.F.oracle) r.F.violations);
  Alcotest.(check bool) "nothing fired" true (r.F.fired = []);
  Array.iteri
    (fun i h ->
      if is_adapt_site i then
        Alcotest.(check int) ("quiet without updates: " ^ F.sites.(i)) 0 h
      else if is_alpaca_site i then
        Alcotest.(check int)
          ("quiet under the immortal backend: " ^ F.sites.(i))
          0 h
      else
        Alcotest.(check bool) ("hit by a plain run: " ^ F.sites.(i)) true (h > 0))
    r.F.hits

let test_depth1_exhaustive_coverage () =
  let c = F.exhaustive Scenario.quickstart ~seed:42 ~depth:1 in
  (* level 1 is complete over dynamic instants: one run per (site,
     occurrence) pair the uninjected baseline exhibits *)
  let instants = Array.fold_left ( + ) 0 c.F.baseline.F.hits in
  Alcotest.(check int) "one run per dynamic instant" instants
    (List.length c.F.runs);
  Alcotest.(check int) "every fireable site injected"
    (F.site_count
    - List.length Adapt.injection_sites
    - List.length Alpaca.injection_sites)
    (List.length c.F.covered);
  Alcotest.(check int) "zero violations" 0 (F.total_violations c);
  Alcotest.(check bool) "no reproducer" true (c.F.shrunk = None);
  List.iter
    (fun (r : F.run_result) ->
      Alcotest.(check bool)
        ("schedule fired: " ^ F.schedule_to_string r.F.schedule)
        true
        (r.F.fired = r.F.schedule);
      Alcotest.(check bool) "injection rebooted the device" true
        (r.F.power_failures >= 1))
    c.F.runs

let test_replay_deterministic () =
  (* every depth-1 reproducer line rebuilds a byte-identical trace *)
  let c = F.exhaustive Scenario.quickstart ~seed:42 ~depth:1 in
  List.iter
    (fun (r : F.run_result) ->
      let line = F.replay_line ~seed:r.F.seed r.F.schedule in
      match F.replay Scenario.quickstart ~line with
      | Ok (again, reproducible) ->
          Alcotest.(check bool) ("reproducible: " ^ line) true reproducible;
          Alcotest.(check string) ("same digest: " ^ line) r.F.digest
            again.F.digest
      | Error msg -> Alcotest.fail msg)
    c.F.runs

let test_unreproducible () =
  (* the campaign's own check re-runs each run once against its recorded
     result: a clean campaign reproduces, and a tampered record is
     reported alone, whatever the job count *)
  let c = F.exhaustive Scenario.quickstart ~seed:42 ~depth:1 in
  let lines =
    List.map (fun (r : F.run_result) -> F.replay_line ~seed:r.F.seed r.F.schedule)
  in
  Alcotest.(check (list string)) "clean campaign" []
    (lines (F.unreproducible Scenario.quickstart c));
  let victim = List.nth c.F.runs 7 in
  let tampered = { victim with F.digest = String.make 32 '0' } in
  let c =
    { c with
      F.runs = List.map (fun r -> if r == victim then tampered else r) c.F.runs }
  in
  List.iter
    (fun jobs ->
      let bad = F.unreproducible ~jobs Scenario.quickstart c in
      Alcotest.(check (list string))
        (Printf.sprintf "tampered run at jobs %d" jobs)
        (lines [ victim ]) (lines bad);
      Alcotest.(check bool) "the recorded run is returned" true (bad = [ tampered ]))
    [ 1; 2 ]

let test_random_campaign_reproducible () =
  let a = F.random_campaign Scenario.quickstart ~seed:7 ~runs:25 ~max_depth:3 in
  let b = F.random_campaign Scenario.quickstart ~seed:7 ~runs:25 ~max_depth:3 in
  Alcotest.(check int) "zero violations" 0 (F.total_violations a);
  Alcotest.(check (list string))
    "same digests from the same campaign seed"
    (List.map (fun r -> r.F.digest) a.F.runs)
    (List.map (fun r -> r.F.digest) b.F.runs)

let test_footprint_matches_baseline () =
  let c = F.exhaustive Scenario.quickstart ~seed:42 ~depth:1 in
  List.iter
    (fun (r : F.run_result) ->
      Alcotest.(check string)
        ("stable footprint: " ^ F.schedule_to_string r.F.schedule)
        c.F.baseline.F.footprint r.F.footprint)
    c.F.runs

let test_json_report_shape () =
  let c = F.exhaustive Scenario.quickstart ~seed:42 ~depth:1 in
  let json = F.campaign_to_json c in
  List.iter
    (fun key ->
      let needle = Printf.sprintf "\"%s\":" key in
      let found =
        let n = String.length needle and l = String.length json in
        let rec go i = i + n <= l && (String.sub json i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("report has " ^ key) true found)
    [
      "scenario"; "mode"; "depth"; "sites"; "registered_sites"; "covered_sites";
      "coverage"; "baseline"; "runs"; "total_runs"; "total_violations"; "shrunk";
    ]

(* Builds share the scenario's lowering and nothing else: two health
   builds hold the same tables, deploy them on stores of their own, and
   stepping one build's suite leaves the other's monitors untouched. *)
let test_builds_share_tables () =
  let build seed = Scenario.health.Scenario.build ~engine:None ~seed in
  let b1 = build 1 and b2 = build 2 in
  Alcotest.(check bool) "tables ==" true
    (b1.Scenario.tables == b2.Scenario.tables);
  Alcotest.(check int) "eight properties" 8 (List.length b2.Scenario.tables);
  List.iter2
    (fun t m ->
      Alcotest.(check bool) (Monitor.name m ^ " runs the shared table") true
        (Monitor.table m == t))
    b1.Scenario.tables
    (Suite.monitors b2.Scenario.suite);
  let cells b =
    Nvm.snapshot_region (Device.nvm b.Scenario.device) ~region:Nvm.Monitor
  in
  let states b =
    List.map
      (fun m -> (Monitor.name m, Monitor.current_state m))
      (Suite.monitors b.Scenario.suite)
  in
  let cells1 = cells b1 and cells2 = cells b2 and states2 = states b2 in
  Alcotest.(check int) "both builds hold every monitor cell"
    (List.length cells1) (List.length cells2);
  List.iteri
    (fun i (kind, task) ->
      ignore
        (Suite.step_all b1.Scenario.suite
           (Helpers.event ~kind ~task ~ts:(i * 1_000) ())))
    [
      (Fsm.Interp.Start, "accel"); (Fsm.Interp.End, "accel");
      (Fsm.Interp.Start, "micSense"); (Fsm.Interp.Start, "micSense");
      (Fsm.Interp.Start, "send"); (Fsm.Interp.End, "send");
    ];
  Alcotest.(check bool) "stepping changed build 1's cells" false
    (cells b1 = cells1);
  Alcotest.(check (list (pair string string))) "build 2's cells" cells2
    (cells b2);
  Alcotest.(check (list (pair string string))) "build 2's states" states2
    (states b2)

let suite =
  [
    ("site numbering", `Quick, test_site_numbering);
    ("builds share tables, not monitors", `Quick, test_builds_share_tables);
    ("schedule parse/print roundtrip", `Quick, test_schedule_roundtrip);
    ("uninjected baseline is clean", `Quick, test_baseline_clean);
    ("depth-1 exhaustive: full coverage, no violations", `Quick,
      test_depth1_exhaustive_coverage);
    ("replay is byte-identical", `Quick, test_replay_deterministic);
    ("campaign check flags exactly the unreproduced runs", `Quick,
      test_unreproducible);
    ("random campaigns reproduce from their seed", `Quick,
      test_random_campaign_reproducible);
    ("injected runs keep the baseline footprint", `Quick,
      test_footprint_matches_baseline);
    ("JSON report keys", `Quick, test_json_report_shape);
  ]
