(* The fault-injection engine itself: site numbering, schedule parsing,
   coverage and oracle verdicts of the bounded-exhaustive campaign over
   the quickstart scenario, and byte-identical replay. *)

open Artemis
module F = Artemis_faultsim.Faultsim
module Scenario = Artemis_faultsim.Scenario

(* The numbering, written out: replay lines and reports name sites by
   these numbers, so moving one is a format change, not a refactor. *)
let numbered_sites =
  [
    (Site.nvm_write_before, "nvm.write.before");
    (Site.nvm_write_after, "nvm.write.after");
    (Site.nvm_tx_write_before, "nvm.tx_write.before");
    (Site.nvm_tx_write_after, "nvm.tx_write.after");
    (Site.nvm_commit_tx_before, "nvm.commit_tx.before");
    (Site.nvm_commit_tx_after, "nvm.commit_tx.after");
    (Site.rt_monitor_step_before, "rt.monitor_step.before");
    (Site.rt_monitor_step_after, "rt.monitor_step.after");
    (Site.rt_event_update_before, "rt.event_update.before");
    (Site.rt_event_update_after, "rt.event_update.after");
    (Site.rt_verdict_before, "rt.verdict.before");
    (Site.rt_verdict_after, "rt.verdict.after");
    (Site.rt_adapt_stage_before, "rt.adapt.stage.before");
    (Site.rt_adapt_stage_after, "rt.adapt.stage.after");
    (Site.rt_adapt_validate_after, "rt.adapt.validate.after");
    (Site.rt_adapt_migrate_before, "rt.adapt.migrate.before");
    (Site.rt_adapt_migrate_after, "rt.adapt.migrate.after");
    (Site.rt_adapt_flip_before, "rt.adapt.flip.before");
    (Site.rt_adapt_flip_after, "rt.adapt.flip.after");
    (Site.rt_adapt_clear_after, "rt.adapt.clear.after");
    (Site.alpaca_log_before, "alpaca.log.before");
    (Site.alpaca_log_after, "alpaca.log.after");
    (Site.alpaca_swap_before, "alpaca.swap.before");
    (Site.alpaca_swap_after, "alpaca.swap.after");
  ]

let test_site_numbering () =
  Alcotest.(check int) "Site.count" (List.length numbered_sites) Site.count;
  Alcotest.(check int) "site_count" Site.count F.site_count;
  Alcotest.(check (list string)) "F.sites, in numbering order"
    (List.map snd numbered_sites) (Array.to_list F.sites);
  List.iteri
    (fun i ((site : Site.t), label) ->
      Alcotest.(check int) ("number of " ^ label) i (site :> int);
      Alcotest.(check string) ("Site.label " ^ label) label (Site.label site);
      Alcotest.(check string) ("Site.of_int " ^ label) label
        (Site.label (Site.of_int i));
      Alcotest.(check int) ("id of " ^ label) i (F.site_id label);
      (* by content: a fresh copy is not physically the label *)
      let copy = String.init (String.length label) (String.get label) in
      Alcotest.(check int) ("id of a copy of " ^ label) i (F.site_id copy))
    numbered_sites;
  List.iter
    (fun i ->
      Alcotest.check_raises
        (Printf.sprintf "Site.of_int %d" i)
        (Invalid_argument
           (Printf.sprintf "Site.of_int: %d outside [0,%d]" i
              (Site.count - 1)))
        (fun () -> ignore (Site.of_int i)))
    [ -1; Site.count ];
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
let adapt_sites =
  Site.
    [
      rt_adapt_stage_before; rt_adapt_stage_after; rt_adapt_validate_after;
      rt_adapt_migrate_before; rt_adapt_migrate_after; rt_adapt_flip_before;
      rt_adapt_flip_after; rt_adapt_clear_after;
    ]

let alpaca_sites = Alpaca.backend.Backend.injection_sites
let is_adapt_site i = List.mem (Site.of_int i) adapt_sites
let is_alpaca_site i = List.mem (Site.of_int i) alpaca_sites

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
    (F.site_count - List.length adapt_sites - List.length alpaca_sites)
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

let md5 text = Digest.to_hex (Digest.string text)

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
    ];
  Alcotest.(check string) "report bytes" "7f8fc14158bac2a7ef159cfc1a6b7e7b"
    (md5 json)

(* The bytes a campaign renders, pinned: a renderer that changes one
   byte of a trace, footprint or report fails here, not only in the
   benchmark's reference digests.  Per scenario: the MD5 of the
   baseline's footprint, the trace digest of the baseline, and that of
   one crashed run (its power-failure and reboot lines included). *)
let pinned_runs =
  [
    ("quickstart", "bdb685505028095ba925e56e5ac23482",
     "3ad1c986f75ffa25f0029de875205a9c",
     "42:4@3", "60c9fe530a7087a167e40b6cc04c2666");
    ("health", "f1337f43440e95584281e60bce8861dd",
     "8f6f37e4e7542a4e4e8264f7118f9ca9",
     "42:4@202", "6cbd2f27e4ef713fe32dcf3167ebe5ad");
    ("quickstart-adapt", "62e54374f38d2120cec8c2e08ac78193",
     "7b0bcf018cb2cbcc4635e30a500ce1d2",
     "42:4@3", "cc740dad9fd8c9c38ebd6c84e974c85f");
    ("health-adapt", "2d2ceb0532e12c4983d4a89469a041c5",
     "ce00dc4dbfc4727d970ed96e85191302",
     "42:4@198", "fdc37f58dabcd7f300de4a2fc4035223");
    ("quickstart-fresh", "bdb685505028095ba925e56e5ac23482",
     "3ad1c986f75ffa25f0029de875205a9c",
     "42:4@3", "60c9fe530a7087a167e40b6cc04c2666");
    ("stale-read", "22efc992037c48d217949761bf9f0e85",
     "c29b657eaa7ddd969c07a94a397c6118",
     "42:4@3", "b59c0f6cabe83be05aeaedd99d94dc2c");
    ("war-buggy", "4aa6a0c5beca412b8febc39a99756a80",
     "91edc77d3dde76a0849aa96b424c5e4a",
     "42:4@3", "161d80e8025240701484a72496ceec5f");
    ("livelock-prop", "6a44bfab80e92fdb54eb6661d687fccb",
     "76a9c5d9f58516cd081d1ce8cf5a7e9c",
     "42:4@2", "e4f48ecca451e9e9cd496e12d1a2450a");
    ("quickstart-alpaca", "5d60b4cb47ad4672926638ac64787377",
     "3ad1c986f75ffa25f0029de875205a9c",
     "42:4@3", "9a2b0a50c6751e981e380e9620281bcb");
  ]

let test_pinned_bytes () =
  Alcotest.(check (list string)) "every scenario pinned"
    (List.map (fun s -> s.Scenario.name) Scenario.all)
    (List.map (fun (name, _, _, _, _) -> name) pinned_runs);
  List.iter
    (fun (name, footprint, baseline, line, crashed) ->
      let scenario = Option.get (Scenario.find name) in
      let b = F.run_schedule scenario ~seed:42 [] in
      Alcotest.(check string) (name ^ " footprint") footprint
        (md5 b.F.footprint);
      Alcotest.(check string) (name ^ " baseline digest") baseline b.F.digest;
      match F.replay scenario ~line with
      | Ok (r, _) ->
          Alcotest.(check bool) (line ^ " crashed") true
            (r.F.power_failures > b.F.power_failures);
          Alcotest.(check string) (name ^ " digest at " ^ line) crashed
            r.F.digest
      | Error msg -> Alcotest.fail msg)
    pinned_runs;
  (* two violation rows exercise the violations array *)
  let c = F.exhaustive Scenario.quickstart_alpaca ~seed:42 ~depth:2 in
  Alcotest.(check int) "quickstart-alpaca depth-2 violations" 2
    (F.total_violations c);
  Alcotest.(check string) "quickstart-alpaca depth-2 report bytes"
    "970d4bbcead43078d495cd392bda0652" (md5 (F.campaign_to_json c))

(* The depth-1 reports of the benchmark's health workload and of the
   scenario that fires all eight update sites, pinned at seed 42. *)
let test_pinned_reports () =
  List.iter
    (fun ((sc : Scenario.t), digest) ->
      let c = F.exhaustive sc ~seed:42 ~depth:1 in
      Alcotest.(check string)
        (sc.Scenario.name ^ " depth-1 report bytes")
        digest
        (md5 (F.campaign_to_json c)))
    [
      (Scenario.health, "8c68b0a416e3d67550b175e0b386bef9");
      (Scenario.quickstart_adapt, "afeb833cc84fe13b627ffda82245dfd1");
    ]

(* [~probe] is the numbered hook seen through [Site.label]: both views
   fire the same sites in the same order, as often as a campaign's
   uninjected baseline counts them, and a run takes one or the other. *)
let test_views_fire_the_same_sites () =
  List.iter
    (fun ((sc : Scenario.t), own_sites) ->
      let name = sc.Scenario.name in
      let run ?on_site ?probe () =
        let b = sc.Scenario.build ~engine:None ~seed:42 in
        ignore
          (Runtime.run_instrumented ~config:b.Scenario.config
             ~adaptations:b.Scenario.adaptations ~backend:b.Scenario.backend
             ?on_site ?probe b.Scenario.device b.Scenario.app
             b.Scenario.suite);
        Device.nvm b.Scenario.device
      in
      let numbered = ref [] and labelled = ref [] in
      let nvm = run ~on_site:(fun s -> numbered := s :: !numbered) () in
      ignore (run ~probe:(fun l -> labelled := l :: !labelled) ());
      let fired = List.length !numbered in
      Nvm.fire nvm Site.nvm_write_before;
      Alcotest.(check int) (name ^ ": the hook is cleared on exit") fired
        (List.length !numbered);
      Alcotest.(check (list string))
        (name ^ ": labels = Site.label of the numbers")
        (List.rev_map Site.label !numbered)
        (List.rev !labelled);
      let counts = Array.make Site.count 0 in
      List.iter
        (fun (s : Site.t) -> counts.((s :> int)) <- counts.((s :> int)) + 1)
        !numbered;
      Alcotest.(check (array int))
        (name ^ ": per-site counts = the baseline's hits")
        (F.run_schedule sc ~seed:42 []).F.hits counts;
      List.iter
        (fun (s : Site.t) ->
          Alcotest.(check bool)
            (name ^ " fires " ^ Site.label s)
            true
            (counts.((s :> int)) > 0))
        own_sites;
      let b = sc.Scenario.build ~engine:None ~seed:42 in
      Alcotest.check_raises (name ^ ": both views")
        (Invalid_argument
           "Runtime.run_instrumented: both ~on_site and ~probe given")
        (fun () ->
          ignore
            (Runtime.run_instrumented ~config:b.Scenario.config
               ~on_site:ignore ~probe:ignore b.Scenario.device b.Scenario.app
               b.Scenario.suite)))
    [
      (Scenario.quickstart_adapt, adapt_sites);
      (Scenario.quickstart_alpaca, alpaca_sites);
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
    ("trace, footprint and report bytes are pinned", `Quick, test_pinned_bytes);
    ("health and quickstart-adapt depth-1 reports are pinned", `Quick,
      test_pinned_reports);
    ("on_site and probe fire the same sites", `Quick,
      test_views_fire_the_same_sites);
  ]
