(** Static consistency checking of property specifications.

    The paper lists this as future work (Section 7, "Property Consistency
    Checking"): simultaneous time-related properties can be unsatisfiable
    by construction, i.e. no task-execution sequence meets all of them.
    This module implements a pragmatic checker over the specification
    (and, when available, the application's task durations):

    {b errors} (no execution can satisfy the property):
    - [maxDuration] below the task's uninterrupted execution time;
    - [period] below the task's execution time;
    - [MITD] whose window is shorter than the execution time of the tasks
      that necessarily run between the producer and the consumer;
    - [minEnergy] above the per-charge energy budget (when given);
    - [restartTask] as the failure action of a data-availability property
      ([collect]): re-starting the same task re-fails the same check
      without producing data - a livelock.

    {b warnings} (suspicious but satisfiable):
    - [maxDuration] exceeding a [period] on the same task;
    - [minEnergy] below the task's own energy demand;
    - duplicate properties of the same kind/dependency/path on one task;
    - [maxTries: 1] (any single power failure skips the task);
    - [restartTask] on a time-window property (the paper's examples
      always escalate to the path level). *)

open Artemis_util

type severity = Error | Warning

type finding = { severity : severity; where : string; message : string }

val check_spec : Ast.t -> finding list
(** Application-independent rules only (usable from the [artemisc] CLI). *)

val check :
  ?usable_budget:Energy.energy ->
  Artemis_task.Task.app ->
  Ast.t ->
  finding list
(** All rules; task durations and path structure come from the app, the
    optional [usable_budget] enables the energy-budget rule. *)

val errors : finding list -> finding list
val to_string : finding list -> string
