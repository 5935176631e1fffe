open Artemis_util
module Obs = Artemis_obs.Obs

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

(* Event decomposition into (kind, task, path, detail) columns. *)
let event_columns = function
  | Event.Boot -> ("boot", "", "", "")
  | Event.Reboot { charging_delay } ->
      ("reboot", "", "", Printf.sprintf "charging_us=%d" (Time.to_us charging_delay))
  | Event.Power_failure { during_task } ->
      ("power_failure", Option.value during_task ~default:"", "", "")
  | Event.Task_started { task; attempt } ->
      ("task_started", task, "", Printf.sprintf "attempt=%d" attempt)
  | Event.Task_completed { task } -> ("task_completed", task, "", "")
  | Event.Monitor_verdict { monitor; task; action } ->
      ("monitor_verdict", task, "", Printf.sprintf "monitor=%s action=%s" monitor action)
  | Event.Runtime_action { action; task } -> ("runtime_action", task, "", action)
  | Event.Path_started { path } -> ("path_started", "", string_of_int path, "")
  | Event.Path_completed { path } -> ("path_completed", "", string_of_int path, "")
  | Event.Path_restarted { path; reason } ->
      ("path_restarted", "", string_of_int path, reason)
  | Event.Path_skipped { path; reason } ->
      ("path_skipped", "", string_of_int path, reason)
  | Event.Monitoring_suspended { path } ->
      ("monitoring_suspended", "", string_of_int path, "")
  | Event.Round_completed { round } ->
      ("round_completed", "", "", Printf.sprintf "round=%d" round)
  | Event.Adaptation_staged { id; bytes } ->
      ("adaptation_staged", "", "", Printf.sprintf "id=%d bytes=%d" id bytes)
  | Event.Adaptation_applied { id; generation } ->
      ("adaptation_applied", "", "", Printf.sprintf "id=%d generation=%d" id generation)
  | Event.Adaptation_rejected { id; reason } ->
      ("adaptation_rejected", "", "", Printf.sprintf "id=%d %s" id reason)
  | Event.App_completed -> ("app_completed", "", "", "")
  | Event.Horizon_reached { reason } -> ("horizon_reached", "", "", reason)

let log_to_csv log =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time_us,event,task,path,detail\n";
  List.iter
    (fun (e : Event.timed) ->
      let kind, task, path, detail = event_columns e.Event.event in
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%s,%s\n" (Time.to_us e.Event.at) kind
           (csv_quote task) path (csv_quote detail)))
    (Log.events log);
  Buffer.contents buf

let log_digest log = Digest.to_hex (Digest.string (Log.render_timeline log))

(* --- metrics/stats reconciliation --- *)

(* The observability counters are bumped at the [Device.record]
   chokepoint - the same event stream [Stats] is derived from - so when
   the registry was enabled for the whole run the two must agree
   exactly.  Returns the mismatches as [(name, stats_value, counter)]. *)
let reconciled_counters =
  [
    ("task_executions", fun (s : Stats.t) -> s.Stats.task_executions);
    ("task_completions", fun s -> s.Stats.task_completions);
    ("power_failures", fun s -> s.Stats.power_failures);
    ("reboots", fun s -> s.Stats.reboots);
    ("path_restarts", fun s -> s.Stats.path_restarts);
    ("path_skips", fun s -> s.Stats.path_skips);
  ]

let reconcile_metrics obs s =
  List.filter_map
    (fun (name, get) ->
      let expected = get s in
      let got = Obs.counter_value obs (Obs.counter name) in
      if expected = got then None else Some (name, expected, got))
    reconciled_counters
