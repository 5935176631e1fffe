open Artemis

type result = {
  stats : Stats.t;
  mitd_violations : int;
  path2_restarts : int;
  path2_skipped : bool;
  timeline : string;
}

let path2_tasks = [ "accel"; "classify"; "send" ]
let mentions_path2_task t = List.mem t path2_tasks

(* Keep only the events that tell the Figure 13 story: path 2 activity,
   the power failures interleaving it, and the monitor decisions. *)
let relevant = function
  | Event.Task_started { task; _ }
  | Event.Task_completed { task }
  | Event.Power_failure { during_task = Some task } ->
      mentions_path2_task task
  | Event.Monitor_verdict { task; _ } | Event.Runtime_action { task; _ } ->
      mentions_path2_task task
  | Event.Path_started { path }
  | Event.Path_completed { path }
  | Event.Path_restarted { path; _ }
  | Event.Path_skipped { path; _ }
  | Event.Monitoring_suspended { path } ->
      path = 2
  | Event.Reboot _ -> true
  | Event.Power_failure { during_task = None } -> true
  | Event.Boot | Event.App_completed | Event.Horizon_reached _
  | Event.Round_completed _ | Event.Adaptation_staged _
  | Event.Adaptation_applied _ | Event.Adaptation_rejected _ ->
      true

let is_mitd_verdict = function
  | Event.Monitor_verdict { monitor; _ } ->
      String.length monitor >= 4 && String.equal (String.sub monitor 0 4) "MITD"
  | _ -> false

let run ?(delay_min = 6) () =
  let { Config.stats; device; _ } =
    Config.run_health Config.Artemis_runtime
      (Config.Intermittent (Time.of_min delay_min))
  in
  let log = Device.log device in
  let events = Log.events log in
  (* the story starts when path 2 is first entered *)
  let rec from_path2 = function
    | [] -> []
    | { Event.event = Event.Path_started { path = 2 }; _ } :: _ as tail -> tail
    | _ :: rest -> from_path2 rest
  in
  let shown =
    List.filter (fun (e : Event.timed) -> relevant e.Event.event) (from_path2 events)
  in
  let mitd_violations =
    List.length (List.filter (fun (e : Event.timed) -> is_mitd_verdict e.Event.event) events)
  in
  let path2_restarts =
    Log.count log (function
      | Event.Path_restarted { path = 2; _ } -> true
      | _ -> false)
  in
  let path2_skipped =
    Log.count log (function Event.Path_skipped { path = 2; _ } -> true | _ -> false)
    > 0
  in
  let timeline =
    let buf = Buffer.create 4096 in
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char buf '\n';
        Event.render_timed buf e)
      shown;
    Buffer.contents buf
  in
  { stats; mitd_violations; path2_restarts; path2_skipped; timeline }

let render r =
  Printf.sprintf
    "MITD violations observed: %d\npath #2 restarts: %d\npath #2 skipped by \
     maxAttempt: %b\n\n%s"
    r.mitd_violations r.path2_restarts r.path2_skipped r.timeline
