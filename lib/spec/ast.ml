open Artemis_util

type action = Artemis_fsm.Ast.action =
  | Restart_path
  | Skip_path
  | Restart_task
  | Skip_task
  | Complete_path

type max_attempt = { attempts : int; exhausted : action }

type property =
  | Max_tries of { n : int; on_fail : action; path : int option }
  | Max_duration of { limit : Time.t; on_fail : action; path : int option }
  | Mitd of {
      limit : Time.t;
      dp_task : string;
      on_fail : action;
      max_attempt : max_attempt option;
      path : int option;
    }
  | Collect of { n : int; dp_task : string; on_fail : action; path : int option }
  | Period of {
      interval : Time.t;
      on_fail : action;
      max_attempt : max_attempt option;
      path : int option;
    }
  | Dp_data of {
      var : string;
      low : float;
      high : float;
      on_fail : action;
      path : int option;
    }
  | Min_energy of { uj : float; on_fail : action; path : int option }

type task_block = { task : string; properties : property list }
type t = task_block list

let property_kind = function
  | Max_tries _ -> "maxTries"
  | Max_duration _ -> "maxDuration"
  | Mitd _ -> "MITD"
  | Collect _ -> "collect"
  | Period _ -> "period"
  | Dp_data _ -> "dpData"
  | Min_energy _ -> "minEnergy"

let property_task_path = function
  | Max_tries { path; _ }
  | Max_duration { path; _ }
  | Mitd { path; _ }
  | Collect { path; _ }
  | Period { path; _ }
  | Dp_data { path; _ }
  | Min_energy { path; _ } ->
      path

let property_on_fail = function
  | Max_tries { on_fail; _ }
  | Max_duration { on_fail; _ }
  | Mitd { on_fail; _ }
  | Collect { on_fail; _ }
  | Period { on_fail; _ }
  | Dp_data { on_fail; _ }
  | Min_energy { on_fail; _ } ->
      on_fail

let equal_action (a : action) b = a = b

let equal_max_attempt_opt a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> a.attempts = b.attempts && equal_action a.exhausted b.exhausted
  | None, Some _ | Some _, None -> false

let equal_property p q =
  match (p, q) with
  | Max_tries a, Max_tries b ->
      a.n = b.n && equal_action a.on_fail b.on_fail && a.path = b.path
  | Max_duration a, Max_duration b ->
      Time.equal a.limit b.limit && equal_action a.on_fail b.on_fail && a.path = b.path
  | Mitd a, Mitd b ->
      Time.equal a.limit b.limit
      && String.equal a.dp_task b.dp_task
      && equal_action a.on_fail b.on_fail
      && equal_max_attempt_opt a.max_attempt b.max_attempt
      && a.path = b.path
  | Collect a, Collect b ->
      a.n = b.n
      && String.equal a.dp_task b.dp_task
      && equal_action a.on_fail b.on_fail
      && a.path = b.path
  | Period a, Period b ->
      Time.equal a.interval b.interval
      && equal_action a.on_fail b.on_fail
      && equal_max_attempt_opt a.max_attempt b.max_attempt
      && a.path = b.path
  | Dp_data a, Dp_data b ->
      String.equal a.var b.var && a.low = b.low && a.high = b.high
      && equal_action a.on_fail b.on_fail
      && a.path = b.path
  | Min_energy a, Min_energy b ->
      a.uj = b.uj && equal_action a.on_fail b.on_fail && a.path = b.path
  | ( ( Max_tries _ | Max_duration _ | Mitd _ | Collect _ | Period _
      | Dp_data _ | Min_energy _ ),
      _ ) ->
      false

let equal_task_block a b =
  String.equal a.task b.task
  && List.length a.properties = List.length b.properties
  && List.for_all2 equal_property a.properties b.properties

let equal a b =
  List.length a = List.length b && List.for_all2 equal_task_block a b
