open Artemis_util

type outcome = Completed | Did_not_finish of string

type t = {
  outcome : outcome;
  total_time : Time.t;
  off_time : Time.t;
  app_time : Time.t;
  runtime_overhead : Time.t;
  monitor_overhead : Time.t;
  energy_total : Energy.energy;
  energy_app : Energy.energy;
  energy_runtime : Energy.energy;
  energy_monitor : Energy.energy;
  power_failures : int;
  reboots : int;
  task_executions : int;
  task_completions : int;
  path_restarts : int;
  path_skips : int;
}

let completed t = t.outcome = Completed

let outcome_string t =
  match t.outcome with
  | Completed -> "completed"
  | Did_not_finish reason -> "dnf:" ^ reason
let active_time t = Time.sub t.total_time t.off_time
let overhead_time t = Time.add t.runtime_overhead t.monitor_overhead

let pp ppf t =
  let outcome =
    match t.outcome with
    | Completed -> "completed"
    | Did_not_finish r -> "DNF (" ^ r ^ ")"
  in
  Format.fprintf ppf
    "@[<v>outcome: %s@ total: %a (off %a)@ app: %a, runtime: %a, monitor: %a@ \
     energy: %a (app %a, runtime %a, monitor %a)@ failures: %d, reboots: %d@ \
     tasks: %d started / %d completed@ paths: %d restarts, %d skips@]"
    outcome Time.pp t.total_time Time.pp t.off_time Time.pp t.app_time Time.pp
    t.runtime_overhead Time.pp t.monitor_overhead Energy.pp_energy
    t.energy_total Energy.pp_energy t.energy_app Energy.pp_energy
    t.energy_runtime Energy.pp_energy t.energy_monitor t.power_failures
    t.reboots t.task_executions t.task_completions t.path_restarts t.path_skips
