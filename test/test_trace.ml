open Artemis

let test_log_order_and_count () =
  let log = Log.create () in
  Log.record log ~at:Time.zero Event.Boot;
  Log.record log ~at:(Time.of_ms 1) (Event.Task_started { task = "a"; attempt = 1 });
  Log.record log ~at:(Time.of_ms 2) (Event.Task_completed { task = "a" });
  Log.record log ~at:(Time.of_ms 3) (Event.Task_started { task = "a"; attempt = 1 });
  Alcotest.(check int) "length" 4 (Log.length log);
  Alcotest.(check int) "attempts of a" 2 (Log.task_attempts log ~task:"a");
  Alcotest.(check int) "attempts of b" 0 (Log.task_attempts log ~task:"b");
  match Log.events log with
  | { Event.event = Event.Boot; _ } :: _ -> ()
  | _ -> Alcotest.fail "events out of order"

let test_timeline_limit () =
  let log = Log.create () in
  for i = 1 to 10 do
    Log.record log ~at:(Time.of_ms i) (Event.Task_started { task = "t"; attempt = i })
  done;
  let rendered = Log.render_timeline ~limit:3 log in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "3 + elision line" 4 (List.length lines);
  Alcotest.(check string) "elision mentions count" "... (7 more events)"
    (List.nth lines 3)

(* Every constructor's text: trace digests hash these lines. *)
let test_event_rendering () =
  List.iter
    (fun (text, e) ->
      Alcotest.(check string) text text (Event.to_string e);
      Alcotest.(check string) ("pp " ^ text) text (Format.asprintf "%a" Event.pp e))
    [
      ("boot", Event.Boot);
      ( "reboot after 2.00min charging",
        Event.Reboot { charging_delay = Time.of_min 2 } );
      ( "power failure during send",
        Event.Power_failure { during_task = Some "send" } );
      ("power failure between tasks", Event.Power_failure { during_task = None });
      ( "start accel (attempt 3)",
        Event.Task_started { task = "accel"; attempt = 3 } );
      ("end accel", Event.Task_completed { task = "accel" });
      ( "monitor MITD_send_accel: violation at send -> restartPath",
        Event.Monitor_verdict
          { monitor = "MITD_send_accel"; task = "send"; action = "restartPath" }
      );
      ( "runtime action skipPath at send",
        Event.Runtime_action { action = "skipPath"; task = "send" } );
      ("path #2 started", Event.Path_started { path = 2 });
      ("path #2 completed", Event.Path_completed { path = 2 });
      ( "path #2 restarted (MITD)",
        Event.Path_restarted { path = 2; reason = "MITD" } );
      ( "path #-1 skipped (maxAttempt)",
        Event.Path_skipped { path = -1; reason = "maxAttempt" } );
      ( "monitoring suspended until path #3 completes",
        Event.Monitoring_suspended { path = 3 } );
      ("round 7 completed", Event.Round_completed { round = 7 });
      ( "update #1 staged (160 bytes)",
        Event.Adaptation_staged { id = 1; bytes = 160 } );
      ( "update #1 applied (generation 2)",
        Event.Adaptation_applied { id = 1; generation = 2 } );
      ( "update #4 rejected (remove: no deployed monitor named x)",
        Event.Adaptation_rejected
          { id = 4; reason = "remove: no deployed monitor named x" } );
      ("application completed", Event.App_completed);
      ( "simulation horizon reached (time limit)",
        Event.Horizon_reached { reason = "time limit" } );
    ];
  let timed = { Event.at = Time.of_us 1_500; event = Event.Boot } in
  Alcotest.(check string) "pp_timed" "[1.50ms] boot"
    (Format.asprintf "%a" Event.pp_timed timed);
  let log = Log.create () in
  Alcotest.(check string) "empty timeline" "" (Log.render_timeline log);
  Log.record log ~at:Time.zero Event.Boot;
  Log.record log ~at:(Time.of_sec 2) Event.App_completed;
  Alcotest.(check string) "full timeline" "[0us] boot\n[2.00s] application completed"
    (Log.render_timeline log);
  Alcotest.(check string) "limit 0 elides every line" "... (2 more events)"
    (Log.render_timeline ~limit:0 log);
  Alcotest.(check string) "limit = length elides nothing"
    (Log.render_timeline log) (Log.render_timeline ~limit:2 log);
  Alcotest.check_raises "negative limit"
    (Invalid_argument "Log.render_timeline: negative limit -1") (fun () ->
      ignore (Log.render_timeline ~limit:(-1) log))

let test_stats_helpers () =
  let stats =
    {
      Stats.outcome = Stats.Completed;
      total_time = Time.of_sec 10;
      off_time = Time.of_sec 4;
      app_time = Time.of_sec 5;
      runtime_overhead = Time.of_ms 600;
      monitor_overhead = Time.of_ms 400;
      energy_total = Energy.mj 3.;
      energy_app = Energy.mj 2.;
      energy_runtime = Energy.mj 0.5;
      energy_monitor = Energy.mj 0.5;
      power_failures = 2;
      reboots = 2;
      task_executions = 5;
      task_completions = 3;
      path_restarts = 1;
      path_skips = 0;
    }
  in
  Alcotest.(check bool) "completed" true (Stats.completed stats);
  Alcotest.check Helpers.time "active" (Time.of_sec 6) (Stats.active_time stats);
  Alcotest.check Helpers.time "overhead" (Time.of_sec 1) (Stats.overhead_time stats)

let suite =
  [
    Alcotest.test_case "log order and counting" `Quick test_log_order_and_count;
    Alcotest.test_case "timeline limit" `Quick test_timeline_limit;
    Alcotest.test_case "event rendering" `Quick test_event_rendering;
    Alcotest.test_case "stats helpers" `Quick test_stats_helpers;
  ]
