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

let guard d ~iterations ~limit =
  let stop reason =
    Device.record d (Event.Horizon_reached { reason });
    Some (Stats.Did_not_finish reason)
  in
  if iterations > limit then stop "iteration limit (no progress)"
  else if Device.horizon_exceeded d then stop "simulation time horizon"
  else None
