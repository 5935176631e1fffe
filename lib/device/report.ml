module Event = Artemis_trace.Event
module Log = Artemis_trace.Log
module Stats = Artemis_trace.Stats

let stats d ~outcome =
  let log = Device.log d in
  let count pred = Log.count log pred in
  {
    Stats.outcome;
    total_time = Device.sim_time d;
    off_time = Device.off_time d;
    app_time = Device.time_in d Device.App;
    runtime_overhead = Device.time_in d Device.Runtime_work;
    monitor_overhead = Device.time_in d Device.Monitor_work;
    energy_total = Device.total_energy d;
    energy_app = Device.energy_in d Device.App;
    energy_runtime = Device.energy_in d Device.Runtime_work;
    energy_monitor = Device.energy_in d Device.Monitor_work;
    power_failures = Device.power_failures d;
    reboots = Device.reboots d;
    task_executions = count (function Event.Task_started _ -> true | _ -> false);
    task_completions =
      count (function Event.Task_completed _ -> true | _ -> false);
    path_restarts = count (function Event.Path_restarted _ -> true | _ -> false);
    path_skips = count (function Event.Path_skipped _ -> true | _ -> false);
  }

let max_loop_iterations = 200_000

let stop d reason =
  Device.record d (Event.Horizon_reached { reason });
  Stats.Did_not_finish reason

let run ?(limit = max_loop_iterations) d step =
  Device.record d Event.Boot;
  let rec loop i =
    if i > limit then stop d "iteration limit (no progress)"
    else if Device.horizon_exceeded d then stop d "simulation time horizon"
    else
      match step i with
      | None -> loop (i + 1)
      | Some Stats.Completed ->
          Device.record d Event.App_completed;
          Stats.Completed
      | Some outcome -> outcome
  in
  let outcome = loop 1 in
  stats d ~outcome
