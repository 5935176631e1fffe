(** Mayfly-style baseline runtime (Hester et al., SenSys'17), the
    comparison system of the paper's evaluation.

    Mayfly fuses property checking into the runtime main loop
    (Figure 2(b)): each task carries data-expiration and data-collection
    annotations that the loop checks inline before running the task, and a
    violation restarts the task graph's current path.  There is no
    [maxTries]/[maxAttempt] (Section 5.1.1), which is precisely why long
    charging delays drive it into non-termination (Figure 12).

    All bookkeeping (producer completion timestamps, collection counters)
    lives in the [Runtime] NVM region - the fused design the paper
    contrasts with ARTEMIS's separated monitors, and the reason Mayfly's
    runtime FRAM footprint in Table 2 is larger. *)

open Artemis_util
open Artemis_device
open Artemis_task

type annotation =
  | Expires of { producer : string; within : Time.t; path : int option }
      (** the task must start within [within] of [producer]'s completion
          (data freshness / MITD) *)
  | Requires of { producer : string; count : int; path : int option }
      (** the task needs [count] items from [producer] before it may start *)

val annotations_of_spec : Artemis_spec.Ast.t -> (string * annotation list) list
(** Keep the [MITD] and [collect] properties of a specification (the
    subset Mayfly supports, Section 5.1.1) and drop the rest - including
    any [maxAttempt] guards. *)

val run :
  Device.t ->
  Task.app ->
  (string * annotation list) list ->
  Artemis_trace.Stats.t
(** Execute one application run under Mayfly semantics, its loop and
    check overheads priced by {!Cost_model.default}.
    @raise Invalid_argument if {!Task.validate} rejects the app. *)

val backend : Artemis_backend.Backend.b
(** The unified-backend adapter (PR 10, [name = "mayfly"]): runs ARTEMIS
    task apps under the Mayfly discipline inside the shared runtime -
    a fused per-task expiration table ([mfb.end.<task>], one 9-byte cell
    per task whether annotated or not) committed atomically with each
    task, plus the fused in-loop check cost (priced by the run's cost
    model) on every commit. *)
