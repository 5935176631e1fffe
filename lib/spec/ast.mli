(** Abstract syntax of the ARTEMIS property specification language
    (Table 1, Figure 5). *)

open Artemis_util

(** The corrective actions of the intermediate language, re-exported:
    one vocabulary, one string table ({!Artemis_fsm.Ast.action_to_string}). *)
type action = Artemis_fsm.Ast.action =
  | Restart_path
  | Skip_path
  | Restart_task
  | Skip_task
  | Complete_path

type max_attempt = { attempts : int; exhausted : action }
(** The [maxAttempt: n onFail: a] suffix of time-related properties: after
    [attempts] violations the [exhausted] action replaces the primary one
    (the paper's non-termination guard). *)

type property =
  | Max_tries of { n : int; on_fail : action; path : int option }
      (** maximum successive execution attempts of the task *)
  | Max_duration of { limit : Time.t; on_fail : action; path : int option }
      (** maximum task execution duration, measured from the first start
          attempt (Section 4.1.3) *)
  | Mitd of {
      limit : Time.t;
      dp_task : string;
      on_fail : action;
      max_attempt : max_attempt option;
      path : int option;
    }  (** maximum inter-task delay from [dp_task]'s completion *)
  | Collect of {
      n : int;
      dp_task : string;
      on_fail : action;
      path : int option;
    }  (** data items required from [dp_task] before the task may start *)
  | Period of {
      interval : Time.t;
      on_fail : action;
      max_attempt : max_attempt option;
      path : int option;
    }  (** desired execution periodicity of the task *)
  | Dp_data of {
      var : string;
      low : float;
      high : float;
      on_fail : action;
      path : int option;
    }  (** dependent-data range check on a monitored task variable *)
  | Min_energy of { uj : float; on_fail : action; path : int option }
      (** minimum stored energy (uJ) required before the task may start -
          the Section 4.2.2 energy-awareness extension, relying on the
          runtime's capacitor-level primitive *)

type task_block = { task : string; properties : property list }

type t = task_block list

val property_kind : property -> string
(** The concrete-syntax keyword ("maxTries", "MITD", ...). *)

val property_task_path : property -> int option
val property_on_fail : property -> action

val equal : t -> t -> bool

