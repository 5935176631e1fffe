open Artemis_util

type t =
  | Boot
  | Reboot of { charging_delay : Time.t }
  | Power_failure of { during_task : string option }
  | Task_started of { task : string; attempt : int }
  | Task_completed of { task : string }
  | Monitor_verdict of { monitor : string; task : string; action : string }
  | Runtime_action of { action : string; task : string }
  | Path_started of { path : int }
  | Path_completed of { path : int }
  | Path_restarted of { path : int; reason : string }
  | Path_skipped of { path : int; reason : string }
  | Monitoring_suspended of { path : int }
  | Round_completed of { round : int }
  | Adaptation_staged of { id : int; bytes : int }
  | Adaptation_applied of { id : int; generation : int }
  | Adaptation_rejected of { id : int; reason : string }
  | App_completed
  | Horizon_reached of { reason : string }

type timed = { at : Time.t; event : t }

let add = Buffer.add_string
let add_int = Json.add_int

let render buf = function
  | Boot -> add buf "boot"
  | Reboot { charging_delay } ->
      add buf "reboot after "; Time.render buf charging_delay;
      add buf " charging"
  | Power_failure { during_task = Some t } ->
      add buf "power failure during "; add buf t
  | Power_failure { during_task = None } ->
      add buf "power failure between tasks"
  | Task_started { task; attempt } ->
      add buf "start "; add buf task; add buf " (attempt ";
      add_int buf attempt; add buf ")"
  | Task_completed { task } -> add buf "end "; add buf task
  | Monitor_verdict { monitor; task; action } ->
      add buf "monitor "; add buf monitor; add buf ": violation at ";
      add buf task; add buf " -> "; add buf action
  | Runtime_action { action; task } ->
      add buf "runtime action "; add buf action; add buf " at "; add buf task
  | Path_started { path } ->
      add buf "path #"; add_int buf path; add buf " started"
  | Path_completed { path } ->
      add buf "path #"; add_int buf path; add buf " completed"
  | Path_restarted { path; reason } ->
      add buf "path #"; add_int buf path; add buf " restarted (";
      add buf reason; add buf ")"
  | Path_skipped { path; reason } ->
      add buf "path #"; add_int buf path; add buf " skipped (";
      add buf reason; add buf ")"
  | Monitoring_suspended { path } ->
      add buf "monitoring suspended until path #"; add_int buf path;
      add buf " completes"
  | Round_completed { round } ->
      add buf "round "; add_int buf round; add buf " completed"
  | Adaptation_staged { id; bytes } ->
      add buf "update #"; add_int buf id; add buf " staged (";
      add_int buf bytes; add buf " bytes)"
  | Adaptation_applied { id; generation } ->
      add buf "update #"; add_int buf id; add buf " applied (generation ";
      add_int buf generation; add buf ")"
  | Adaptation_rejected { id; reason } ->
      add buf "update #"; add_int buf id; add buf " rejected (";
      add buf reason; add buf ")"
  | App_completed -> add buf "application completed"
  | Horizon_reached { reason } ->
      add buf "simulation horizon reached ("; add buf reason; add buf ")"

let render_timed buf { at; event } =
  Buffer.add_char buf '[';
  Time.render buf at;
  add buf "] ";
  render buf event

let contents render x =
  let buf = Buffer.create 64 in
  render buf x;
  Buffer.contents buf

let to_string e = contents render e
let pp ppf e = Format.pp_print_string ppf (to_string e)
let pp_timed ppf e = Format.pp_print_string ppf (contents render_timed e)
