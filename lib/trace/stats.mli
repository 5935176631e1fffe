(** Aggregate statistics of one simulated run; the raw material of
    Figures 12 and 14-16. *)

open Artemis_util

type outcome =
  | Completed
  | Did_not_finish of string
      (** non-termination: the run hit the simulation horizon or the
          no-progress detector; the string says which *)

type t = {
  outcome : outcome;
  total_time : Time.t;  (** wall-clock span including charging delays *)
  off_time : Time.t;  (** time spent dark (charging) *)
  app_time : Time.t;  (** time executing application task bodies *)
  runtime_overhead : Time.t;  (** runtime bookkeeping (checkTask etc.) *)
  monitor_overhead : Time.t;  (** property checking *)
  energy_total : Energy.energy;
  energy_app : Energy.energy;
  energy_runtime : Energy.energy;
  energy_monitor : Energy.energy;
  power_failures : int;
  reboots : int;
  task_executions : int;  (** Task_started events *)
  task_completions : int;
  path_restarts : int;
  path_skips : int;
}

val completed : t -> bool

val outcome_string : t -> string
(** ["completed"] or ["dnf:<reason>"]: the outcome label of the stats
    JSON/CSV, faultsim runs, the runtime matrix and fleet devices. *)

val active_time : t -> Time.t
(** [total_time - off_time]. *)

val overhead_time : t -> Time.t
(** [runtime_overhead + monitor_overhead]. *)

val pp : Format.formatter -> t -> unit
