(** Observable events of an intermittent execution.

    Both runtimes (ARTEMIS and the Mayfly baseline) log the same event
    vocabulary so traces are directly comparable; Figure 13 is rendered
    straight from such a log. *)

open Artemis_util

type t =
  | Boot  (** first power-on (hard reset, Section 4.1) *)
  | Reboot of { charging_delay : Time.t }
      (** back up after a power failure *)
  | Power_failure of { during_task : string option }
      (** brown-out; [during_task] is the interrupted task, if any *)
  | Task_started of { task : string; attempt : int }
      (** [attempt] counts executions of this task since it last completed *)
  | Task_completed of { task : string }
  | Monitor_verdict of { monitor : string; task : string; action : string }
      (** a monitor reported a property violation and proposed an action *)
  | Runtime_action of { action : string; task : string }
      (** the arbitrated action the runtime actually took *)
  | Path_started of { path : int }
  | Path_completed of { path : int }
  | Path_restarted of { path : int; reason : string }
  | Path_skipped of { path : int; reason : string }
  | Monitoring_suspended of { path : int }
      (** completePath: rest of the path runs unmonitored (Table 1) *)
  | Round_completed of { round : int }
      (** reactive execution: one full pass over the application's paths
          finished and the next begins *)
  | Adaptation_staged of { id : int; bytes : int }
      (** a live property update arrived over the radio and was written
          to the NVM staging region (PR 4) *)
  | Adaptation_applied of { id : int; generation : int }
      (** the update committed: the generation flip swapped the active
          monitor suite *)
  | Adaptation_rejected of { id : int; reason : string }
      (** on-device validation refused the staged update *)
  | App_completed
  | Horizon_reached of { reason : string }
      (** the simulation gave up: treated as non-termination (DNF) *)

type timed = { at : Time.t; event : t }

val render : Buffer.t -> t -> unit
(** The one text rendering of an event, e.g. ["start send (attempt 2)"]:
    the line Figure 13's timeline shows and every trace digest hashes. *)

val render_timed : Buffer.t -> timed -> unit
(** ["[<at>] <event>"], with [at] rendered by {!Time.render}. *)

val pp : Format.formatter -> t -> unit
(** Prints {!render}'s text. *)

val pp_timed : Format.formatter -> timed -> unit
(** Prints {!render_timed}'s text. *)

val to_string : t -> string
(** {!render}'s text. *)
