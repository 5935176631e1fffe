(* Input-freshness tracker (PR 7): age bookkeeping across brown-outs
   under a hand-cranked clock, the provisional-stamp anti-laundering
   protocol against a real NVM store, and the campaign-level behaviour
   of the freshness scenarios (stale-read fires, quickstart-fresh stays
   green, reports are jobs-invariant). *)

open Artemis
module Fresh = Consistency.Freshness
module F = Artemis_faultsim.Faultsim
module Scenario = Artemis_faultsim.Scenario

let sec n = n * 1_000_000

(* A tracker over a manual microsecond clock: every test drives time
   explicitly, brown-outs are just large clock jumps between events. *)
let manual ?(budget_s = 10) () =
  let t = ref 0 in
  let tracker =
    Fresh.create
      ~clock:(fun () -> !t)
      ~budget:(Time.of_sec budget_s)
      ~reads:[ ("use", [ "src" ]) ]
      ()
  in
  (t, tracker)

let completed task = Event.Task_completed { task }
let started task = Event.Task_started { task; attempt = 1 }

let n_violations tracker = List.length (Fresh.violations tracker)

(* --- age bookkeeping --- *)

let test_fresh_consumption_is_green () =
  let t, tr = manual () in
  Fresh.on_event tr (completed "src");
  t := sec 5;
  Fresh.on_event tr (started "use");
  Fresh.on_event tr (completed "use");
  Alcotest.(check int) "within budget: no violation" 0 (n_violations tr)

let test_brownout_ages_data_past_budget () =
  let t, tr = manual () in
  Fresh.on_event tr (completed "src");
  (* a 30 s outage while the consumer waited to re-run *)
  t := sec 30;
  Fresh.on_event tr (started "use");
  match Fresh.violations tr with
  | [ v ] ->
      Alcotest.(check string) "consumer" "use" v.Fresh.v_consumer;
      Alcotest.(check string) "source" "src" v.Fresh.v_source;
      Alcotest.(check (option int)) "age" (Some (sec 30)) v.Fresh.v_age_us;
      Alcotest.(check int) "at" (sec 30) v.Fresh.v_at_us
  | vs -> Alcotest.failf "expected one stale violation, got %d" (List.length vs)

let test_unstamped_consumption_flagged () =
  let _t, tr = manual () in
  Fresh.on_event tr (started "use");
  match Fresh.violations tr with
  | [ v ] ->
      Alcotest.(check (option int)) "unstamped = no age" None v.Fresh.v_age_us
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_restamp_resets_age () =
  let t, tr = manual () in
  Fresh.on_event tr (completed "src");
  t := sec 30;
  Fresh.on_event tr (started "use");
  Alcotest.(check int) "stale once" 1 (n_violations tr);
  (* the producer runs again: its data is young again *)
  Fresh.on_event tr (completed "src");
  t := sec 35;
  Fresh.on_event tr (started "use");
  Fresh.on_event tr (completed "use");
  Alcotest.(check int) "no further violations after restamp" 1
    (n_violations tr)

let test_nondeclared_tasks_ignored () =
  let t, tr = manual () in
  Fresh.on_event tr (completed "bystander");
  t := sec 60;
  Fresh.on_event tr (started "bystander");
  Fresh.on_event tr (completed "bystander");
  Alcotest.(check int) "undeclared tasks never checked" 0 (n_violations tr)

(* A crash can eat the producer's Task_completed after its commit: the
   consumer's check must recover the stamp from the producer's earlier
   Task_started (conservatively timestamped at the start). *)
let test_lost_completion_event_recovered () =
  let t, tr = manual () in
  t := sec 1;
  Fresh.on_event tr (started "src");
  (* no Task_completed: the crash ate it; runtime resumes at the consumer *)
  t := sec 5;
  Fresh.on_event tr (started "use");
  Alcotest.(check int) "pending stamp promoted, age 4s is fresh" 0
    (n_violations tr);
  (* the promoted stamp keeps aging from the producer's start *)
  t := sec 20;
  Fresh.on_event tr (started "use");
  match Fresh.violations tr with
  | [ v ] ->
      Alcotest.(check (option int)) "age measured from producer start"
        (Some (sec 19)) v.Fresh.v_age_us
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_negative_budget_rejected () =
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Freshness.create: negative budget") (fun () ->
      ignore
        (Fresh.create
           ~clock:(fun () -> 0)
           ~budget:(Time.of_us (-1))
           ~reads:[] ()))

(* --- chaos hooks --- *)

let test_skip_stamp_chaos () =
  Fun.protect ~finally:Fresh.Chaos.reset (fun () ->
      Fresh.Chaos.skip_freshness_stamp := true;
      let t, tr = manual () in
      Fresh.on_event tr (completed "src");
      t := sec 1;
      Fresh.on_event tr (started "use");
      match Fresh.violations tr with
      | [ v ] ->
          Alcotest.(check (option int)) "stamp skipped -> unstamped" None
            v.Fresh.v_age_us
      | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs))

let test_clock_skip_chaos () =
  Fun.protect ~finally:Fresh.Chaos.reset (fun () ->
      Fresh.Chaos.clock_skip_on_recovery := true;
      let t, tr = manual () in
      Fresh.on_event tr (completed "src");
      Fresh.on_event tr (Event.Reboot { charging_delay = Time.of_sec 30 });
      t := sec 1;
      Fresh.on_event tr (started "use");
      match Fresh.violations tr with
      | [ v ] ->
          Alcotest.(check bool) "skewed age way past budget" true
            (match v.Fresh.v_age_us with
            | Some age -> age >= 3_600_000_000
            | None -> false)
      | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs))

(* --- anti-laundering (the PR 7 bugfix satellite) ---

   A stamp taken while a transaction is open is provisional: an abort
   or power failure before its commit point must kill it, otherwise a
   reverted producer could pass off its (discarded) output as fresh. *)

let nvm_tracker nvm clock =
  Fresh.create
    ~clock:(fun () -> !clock)
    ~in_tx:(fun () -> Nvm.in_tx nvm)
    ~revert_count:(fun () -> Nvm.revert_count nvm)
    ~budget:(Time.of_sec 10)
    ~reads:[ ("use", [ "src" ]) ]
    ()

let test_aborted_tx_cannot_launder_stamp () =
  let nvm = Nvm.create () in
  let clock = ref 0 in
  let tr = nvm_tracker nvm clock in
  Nvm.begin_tx nvm;
  Fresh.stamp tr ~source:"src";
  Nvm.abort_tx nvm;
  Fresh.seal tr ~source:"src";
  clock := sec 1;
  Fresh.check tr ~consumer:"use";
  match Fresh.violations tr with
  | [ v ] ->
      Alcotest.(check (option int)) "reverted stamp is no stamp" None
        v.Fresh.v_age_us
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_power_failure_cannot_launder_stamp () =
  let nvm = Nvm.create () in
  let clock = ref 0 in
  let tr = nvm_tracker nvm clock in
  Nvm.begin_tx nvm;
  Fresh.stamp tr ~source:"src";
  Nvm.power_failure nvm;
  clock := sec 1;
  Fresh.check tr ~consumer:"use";
  Alcotest.(check int) "provisional stamp died with the crash" 1
    (n_violations tr)

let test_committed_stamp_is_durable () =
  let nvm = Nvm.create () in
  let clock = ref 0 in
  let tr = nvm_tracker nvm clock in
  Nvm.begin_tx nvm;
  Fresh.stamp tr ~source:"src";
  Nvm.commit_tx nvm;
  Fresh.seal tr ~source:"src";
  clock := sec 5;
  (* later reverts must not retroactively kill a sealed stamp *)
  Nvm.begin_tx nvm;
  Nvm.abort_tx nvm;
  Fresh.check tr ~consumer:"use";
  Alcotest.(check int) "sealed stamp survives later reverts" 0
    (n_violations tr)

(* --- campaign level --- *)

let test_stale_read_fires () =
  let c = F.exhaustive Scenario.stale_read ~seed:42 ~depth:1 in
  Alcotest.(check string) "baseline completes" "completed"
    c.F.baseline.F.outcome;
  Alcotest.(check int) "baseline itself is green" 0
    (List.length c.F.baseline.F.violations);
  let violations =
    List.concat_map (fun (r : F.run_result) -> r.F.violations) c.F.runs
  in
  Alcotest.(check bool) "some injected run is stale" true
    (violations <> []);
  List.iter
    (fun (v : F.violation) ->
      Alcotest.(check string) "only the freshness oracle fires"
        "input-freshness" v.F.oracle)
    violations;
  Alcotest.(check bool) "shrunk reproducer found" true (c.F.shrunk <> None)

let test_quickstart_fresh_green () =
  let c = F.exhaustive Scenario.quickstart_fresh ~seed:42 ~depth:1 in
  Alcotest.(check int) "quickstart-fresh clean under injection" 0
    (F.total_violations c)

let test_stale_read_jobs_invariant () =
  let run jobs =
    let ctx = Obs.create () in
    Obs.set_tracing ctx true;
    let json =
      Obs.with_ctx ctx (fun () ->
          F.campaign_to_json (F.exhaustive Scenario.stale_read ~seed:42 ~depth:1 ~jobs))
    in
    (json, Obs.trace_json ctx)
  in
  let json1, trace1 = run 1 in
  let json4, trace4 = run 4 in
  Alcotest.(check string) "report identical across jobs" json1 json4;
  Alcotest.(check string) "merged trace identical across jobs" trace1 trace4

let suite =
  [
    ("fresh consumption is green", `Quick, test_fresh_consumption_is_green);
    ("brown-out ages data past budget", `Quick,
      test_brownout_ages_data_past_budget);
    ("unstamped consumption flagged", `Quick,
      test_unstamped_consumption_flagged);
    ("restamp resets the age", `Quick, test_restamp_resets_age);
    ("undeclared tasks ignored", `Quick, test_nondeclared_tasks_ignored);
    ("lost completion event recovered from start stamp", `Quick,
      test_lost_completion_event_recovered);
    ("negative budget rejected", `Quick, test_negative_budget_rejected);
    ("chaos: skipped stamps read as unstamped", `Quick, test_skip_stamp_chaos);
    ("chaos: recovery clock skip reads as stale", `Quick,
      test_clock_skip_chaos);
    ("aborted tx cannot launder a stamp", `Quick,
      test_aborted_tx_cannot_launder_stamp);
    ("power failure cannot launder a stamp", `Quick,
      test_power_failure_cannot_launder_stamp);
    ("committed+sealed stamp is durable", `Quick,
      test_committed_stamp_is_durable);
    ("campaign: stale-read fires input-freshness only", `Quick,
      test_stale_read_fires);
    ("campaign: quickstart-fresh stays green", `Quick,
      test_quickstart_fresh_green);
    ("campaign: stale-read report is jobs-invariant", `Quick,
      test_stale_read_jobs_invariant);
  ]
