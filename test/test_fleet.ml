(* The fleet runner (PR 8): spec parsing, the jobs/chunk byte-identity
   contract on whole reports, and the roll-up arithmetic (worst-device
   ranking, percentiles) on hand-built fixtures. *)

(* --- spec parsing --- *)

let parse_ok text =
  match Fleet.spec_of_json text with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "spec rejected: %s" e

let test_spec_parse () =
  let spec =
    parse_ok
      {|{"name": "smoke", "scenarios": ["quickstart", "health"],
         "seeds": {"first": 5, "count": 3},
         "harvesters": ["default", "fixed:30s", "duty:200uw", "constant:65uw"],
         "engines": ["interpreted", "table"],
         "backends": ["immortal", "alpaca"]}|}
  in
  Alcotest.(check string) "name" "smoke" spec.Fleet.fleet_name;
  Alcotest.(check (list string))
    "scenarios" [ "quickstart"; "health" ] spec.Fleet.scenarios;
  Alcotest.(check int) "first" 5 spec.Fleet.seed_first;
  Alcotest.(check int) "count" 3 spec.Fleet.seed_count;
  Alcotest.(check (list string))
    "profiles round-trip"
    [ "default"; "fixed:30s"; "duty:200uw"; "constant:65uw" ]
    (List.map Fleet.profile_label spec.Fleet.profiles);
  Alcotest.(check (list string))
    "backends" [ "immortal"; "alpaca" ] spec.Fleet.backends;
  Alcotest.(check int) "size" (2 * 3 * 4 * 2 * 2) (Fleet.spec_size spec)

let test_spec_defaults () =
  let spec =
    parse_ok {|{"scenarios": ["quickstart"], "seeds": {"count": 2}}|}
  in
  Alcotest.(check string) "name" "fleet" spec.Fleet.fleet_name;
  Alcotest.(check int) "first" 0 spec.Fleet.seed_first;
  Alcotest.(check (list string)) "engines" [ "default" ] spec.Fleet.engines;
  Alcotest.(check (list string))
    "backends" [ "immortal" ] spec.Fleet.backends;
  Alcotest.(check int) "size" 2 (Fleet.spec_size spec)

let contains ~frag s =
  let n = String.length frag in
  let rec scan i = i + n <= String.length s
                   && (String.sub s i n = frag || scan (i + 1)) in
  scan 0

let test_spec_rejects () =
  let rejected text frag =
    match Fleet.spec_of_json text with
    | Ok _ -> Alcotest.failf "accepted %s" text
    | Error e ->
        if not (contains ~frag e) then
          Alcotest.failf "error %S does not mention %S" e frag
  in
  rejected {|{"seeds": {"count": 2}}|} "missing scenarios";
  rejected {|{"scenarios": ["quickstart"]}|} "seeds.count";
  rejected {|{"scenarios": ["nope"], "seeds": {"count": 1}}|}
    "unknown scenario";
  rejected
    {|{"scenarios": ["quickstart"], "seeds": {"count": 1},
       "harvesters": ["fixed:30"]}|}
    "unit suffix";
  rejected
    {|{"scenarios": ["quickstart"], "seeds": {"count": 1},
       "engines": ["jit"]}|}
    "unknown engine";
  rejected
    {|{"scenarios": ["quickstart"], "seeds": {"count": 1},
       "backends": ["tock"]}|}
    "unknown backend";
  rejected {|{"scenarios": ["quickstart"], "seeds": {"count": 0}}|}
    "must be positive"

let test_profile_round_trip () =
  List.iter
    (fun label ->
      match Fleet.profile_of_string label with
      | Error e -> Alcotest.failf "%s rejected: %s" label e
      | Ok p ->
          Alcotest.(check string) label label (Fleet.profile_label p))
    [ "default"; "fixed:30s"; "fixed:500ms"; "fixed:2min"; "duty:200uw";
      "constant:65uw" ]

(* --- report determinism: jobs and chunk must never change a byte --- *)

let report_bytes ?(devices = true) report =
  let path = Filename.temp_file "fleet" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Fleet.output_report_json ~devices oc report);
      In_channel.with_open_bin path In_channel.input_all)

let fleet_spec_gen =
  QCheck.make
    ~print:(fun (scenario, count, first) ->
      Printf.sprintf "(%s, count=%d, first=%d)" scenario count first)
    QCheck.Gen.(
      let* scenario = oneofl [ "quickstart"; "stale-read" ] in
      let* count = 1 -- 4 in
      let* first = 0 -- 50 in
      return (scenario, count, first))

let fleet_jobs_invariant =
  QCheck.Test.make ~name:"fleet report is jobs/chunk-invariant" ~count:4
    fleet_spec_gen (fun (scenario, count, first) ->
      let spec =
        parse_ok
          (Printf.sprintf
             {|{"scenarios": ["%s"], "seeds": {"first": %d, "count": %d},
                "harvesters": ["default", "fixed:5s"],
                "engines": ["interpreted", "table"],
                "backends": ["immortal", "alpaca"]}|}
             scenario first count)
      in
      let baseline = report_bytes (Fleet.run ~jobs:1 spec) in
      List.for_all
        (fun (jobs, chunk) ->
          String.equal baseline (report_bytes (Fleet.run ~jobs ?chunk spec)))
        [ (2, None); (8, None); (2, Some 1); (8, Some 3) ])

let test_run_validates () =
  let spec = parse_ok {|{"scenarios": ["quickstart"], "seeds": {"count": 1}}|} in
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Fleet.run: jobs must be >= 1") (fun () ->
      ignore (Fleet.run ~jobs:0 spec))

(* progress ticks arrive once per device with a monotone counter, and
   never perturb the report *)
let test_progress_ticks () =
  let spec = parse_ok {|{"scenarios": ["quickstart"], "seeds": {"count": 3}}|} in
  let ticks = ref [] in
  let report =
    Fleet.run ~jobs:2
      ~on_progress:(fun ~completed ~total -> ticks := (completed, total) :: !ticks)
      spec
  in
  Alcotest.(check (list (pair int int)))
    "one tick per device, in order"
    [ (1, 3); (2, 3); (3, 3) ]
    (List.rev !ticks);
  Alcotest.(check string) "same bytes as untracked run"
    (report_bytes (Fleet.run ~jobs:1 spec))
    (report_bytes report)

(* --- roll-up arithmetic on hand-built fixtures --- *)

let device ?(outcome = "completed") ?(fresh = 0) ?(failures = 0)
    ?(energy = 100.) index =
  {
    Fleet.index;
    scenario = "fixture";
    seed = index;
    profile = "default";
    engine = "default";
    backend = "immortal";
    outcome;
    power_failures = failures;
    reboots = failures;
    energy_uj = energy;
    monitor_uj = 1.;
    active_us = 1000;
    off_us = 0;
    verdicts = [];
    freshness_violations = fresh;
  }

let test_worst_ranking () =
  let fixture =
    [
      device 0 ~energy:50.;
      device 1 ~outcome:"dnf:horizon" ~energy:10.;
      device 2 ~fresh:2 ~energy:10.;
      device 3 ~failures:9 ~energy:10.;
      device 4 ~energy:500.;
      device 5 ~energy:500.;
    ]
  in
  let worst = Fleet.worst_devices ~k:4 fixture in
  (* DNF first, then freshness violations, then failures, then energy;
     index breaks the 4-vs-5 energy tie. *)
  Alcotest.(check (list int))
    "badness order" [ 1; 2; 3; 4 ]
    (List.map (fun d -> d.Fleet.index) worst);
  Alcotest.(check (list int))
    "k larger than fleet" [ 1; 2; 3; 4; 5; 0 ]
    (List.map (fun d -> d.Fleet.index) (Fleet.worst_devices ~k:10 fixture))

let test_percentile () =
  let sample = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p50" 50. (Fleet.percentile sample 0.50);
  Alcotest.(check (float 0.)) "p90" 90. (Fleet.percentile sample 0.90);
  Alcotest.(check (float 0.)) "p99" 99. (Fleet.percentile sample 0.99);
  Alcotest.(check (float 0.)) "max" 100. (Fleet.percentile sample 1.0);
  Alcotest.(check (float 0.)) "single" 7. (Fleet.percentile [| 7. |] 0.5);
  Alcotest.check_raises "empty"
    (Invalid_argument "Fleet.percentile: empty sample") (fun () ->
      ignore (Fleet.percentile [||] 0.5))

(* the group roll-up and histograms agree with a by-hand count *)
let test_rollups () =
  let spec =
    parse_ok
      {|{"scenarios": ["quickstart"], "seeds": {"count": 2},
         "engines": ["interpreted", "table"],
         "backends": ["immortal", "alpaca"]}|}
  in
  let report = Fleet.run spec in
  Alcotest.(check int)
    "engine x backend groups" 4
    (List.length report.Fleet.groups);
  List.iter
    (fun g ->
      Alcotest.(check int) "group size" 2 g.Fleet.g_devices;
      Alcotest.(check string) "group scenario" "quickstart" g.Fleet.g_scenario)
    report.Fleet.groups;
  let total_verdicts =
    List.fold_left (fun a (_, n) -> a + n) 0 report.Fleet.verdict_totals
  in
  Alcotest.(check int) "group verdicts sum to fleet total" total_verdicts
    (List.fold_left (fun a g -> a + g.Fleet.g_verdicts) 0 report.Fleet.groups);
  Alcotest.(check int) "outcome histogram covers every device"
    (Array.length report.Fleet.devices)
    (List.fold_left (fun a (_, n) -> a + n) 0 report.Fleet.outcomes)

let suite =
  [
    ("spec: full document parses", `Quick, test_spec_parse);
    ("spec: defaults fill in", `Quick, test_spec_defaults);
    ("spec: bad fields rejected with context", `Quick, test_spec_rejects);
    ("profiles: labels round-trip", `Quick, test_profile_round_trip);
    ("run: rejects jobs < 1", `Quick, test_run_validates);
    ("run: progress ticks once per device", `Quick, test_progress_ticks);
    ("rollup: worst-device ranking is total", `Quick, test_worst_ranking);
    ("rollup: nearest-rank percentiles", `Quick, test_percentile);
    ("rollup: groups and histograms reconcile", `Quick, test_rollups);
    QCheck_alcotest.to_alcotest fleet_jobs_invariant;
  ]
