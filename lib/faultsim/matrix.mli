(** Differential runtime matrix (PR 10): one scenario executed under
    every registered task-execution backend
    ({!Artemis.Backends.all}), same device model, same monitors, same
    properties.

    The semantic contract: runtime monitoring must be {e backend-
    independent}.  Each run's stream of monitor verdicts and corrective
    actions (timestamps stripped - backends shift cost, never meaning)
    must equal the reference backend's stream; energy split, power
    failures and runtime-region FRAM are reported as comparison columns,
    Table-3 style, not required to match. *)

open Artemis

type row = {
  backend : string;
  outcome : string;  (** ["completed"] or ["dnf:<reason>"] *)
  power_failures : int;
  task_executions : int;
  energy_app : Energy.energy;
  energy_runtime : Energy.energy;
  energy_monitor : Energy.energy;
  runtime_fram_bytes : int;
      (** measured Runtime-region FRAM footprint (scheduler cells plus
          the backend's own protocol cells) *)
  verdicts : string list;  (** rendered verdict/action stream, in order *)
  agrees : bool;  (** verdict stream equals the reference row's *)
}

type report = {
  scenario : string;
  seed : int;
  reference : string;  (** first backend in the matrix *)
  rows : row list;  (** registry order, reference first *)
  agreement : bool;  (** every row agrees *)
}

val run : ?backends:Backend.b list -> Scenario.t -> seed:int -> report
(** Run the scenario once per backend (default: the full
    {!Artemis.Backends.all} registry; the first entry is the verdict
    reference).  Each run rebuilds the scenario from scratch, so rows
    are independent and deterministic.
    @raise Invalid_argument on an empty backend list. *)

val summary : report -> string
(** Human-readable comparison table plus an agreement verdict; on
    divergence the differing verdict streams are printed in full. *)

val to_json : report -> string
(** Fixed key order, so matrix reports diff cleanly. *)
