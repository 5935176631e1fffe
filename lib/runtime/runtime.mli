(** The ARTEMIS intermittent runtime (Section 4.1).

    Executes a task-based application on the simulated device while
    feeding start/end events to the deployed monitor suite and applying
    the corrective actions monitors return.  Faithful to the paper:

    - tasks are all-or-nothing: bodies run inside an NVM transaction that
      also flips the persistent task status, so a power failure rolls the
      whole step back (Section 3.1);
    - the last event lives in a persistent [MonitorEvent] cell; EndTask
      timestamps are fixed inside the task's transaction and never
      refreshed by re-deliveries, while StartTask timestamps are refreshed
      on every re-execution and time-anchored monitors ignore the
      refreshes (Section 4.1.3);
    - the monitor call runs as an ImmortalThreads-style thread, one step
      per monitor; a power failure inside the call is resumed by
      [monitorFinalize] at the next loop entry (Figure 8, line 16);
    - when several monitors fail on one event the runtime arbitrates with
      {!Artemis_monitor.Suite.arbitrate};
    - [restartPath] re-initializes the monitors watching tasks of the
      restarted path; [completePath] suspends monitoring until the
      current path completes (Table 1). *)


open Artemis_util
open Artemis_device
open Artemis_task

type monitor_deployment = Artemis_energy_analysis.Energy_analysis.deployment =
  | Separate_module
      (** the paper's design: monitors as a separate module reached
          through the generic callMonitor interface (default) *)
  | Inlined
      (** Section 7 "Implementation Alternatives": monitoring code woven
          into application/runtime code - no dispatch cost, cheaper
          per-property checks, at the price of a larger footprint *)
  | External_wireless of { radio_power : Energy.power; round_trip : Time.t }
      (** Section 7: monitors on an external device; every event costs a
          radio round-trip but property evaluation is off-device *)
(** Re-export of {!Artemis_energy_analysis.Energy_analysis.deployment}:
    the simulator charges monitor calls through the same cost functions
    the static energy-admissibility pass bounds, so the two can never
    drift.  The runtime also installs that pass as the adaptation
    validate step's admission check - an OTA update whose properties
    could never complete a monitor call within one capacitor charge is
    rejected as ["energy-inadmissible: ..."]. *)

val default_external_wireless : monitor_deployment
(** 30 mW radio, 8 ms round-trip per event (BLE-class magnitudes). *)

type config = {
  cost_model : Cost_model.t;
  max_loop_iterations : int;
      (** no-progress horizon: a run exceeding this many scheduler
          iterations is reported as non-terminating *)
  seed : int;  (** seed of the task-context PRNG *)
  deployment : monitor_deployment;
  rounds : int;
      (** reactive execution: how many full passes over the application's
          paths one run performs (default 1).  Monitor state persists
          across rounds, so periodicity and attempt counters span them. *)
}

val default_config : config

val run :
  ?config:config ->
  ?adaptations:(int * Artemis_adapt.Adapt.update) list ->
  ?backend:Artemis_backend.Backend.b ->
  Device.t -> Task.app -> Artemis_monitor.Suite.t ->
  Artemis_trace.Stats.t
(** Execute one application run to completion (or non-termination).
    Events are recorded in the device's trace log.  [adaptations]
    schedules live property updates: each [(k, update)] is delivered over
    the radio at the first update window on or after scheduler iteration
    [k] ({!run_instrumented} reports each update's outcome).  [backend] selects
    the task execute/commit protocol (PR 10) - which intermittent-system
    family makes task effects durable; defaults to
    {!Artemis_backend.Backend.immortal}, the paper's task-transaction
    protocol, with byte-identical behaviour to the pre-backend runtime.
    @raise Invalid_argument if {!Task.validate} rejects the app. *)

(** {2 Live property adaptation (PR 4)}

    Updates are delivered between monitor calls at an {e update window}
    of the scheduler loop: the wire image is costed over the
    [External_wireless] radio model (in 64-byte chunks), staged into the
    NVM staging region and applied through the crash-atomic
    {!Artemis_adapt.Adapt} protocol.  An interrupted delivery is
    retransmitted at the next window; an update staged before a power
    failure is finished (validate → build → migrate → flip) before
    anything new is staged, and the single-cell generation flip guarantees
    each update applies exactly once. *)

type adaptation_outcome =
  | Update_applied of {
      generation : int;
      migrations : Artemis_adapt.Adapt.migration list;
    }
  | Update_rejected of string
  | Update_unfinished  (** the run ended before delivery completed *)

type adaptation_record = {
  update_id : int;
  scheduled_iteration : int;
  wire_bytes : int;
  outcome : adaptation_outcome;
  first_attempt_at : Time.t;  (** when delivery first started *)
  completed_at : Time.t;  (** when the flip (or rejection) committed *)
  radio_time : Time.t;  (** modeled transfer time of the successful delivery *)
  radio_energy : Energy.energy;
}

val link_cost : monitor_deployment -> bytes:int -> Energy.power * Time.t
(** Radio power and transfer time of [bytes] over the deployment's radio
    in 64-byte chunks, one round-trip each (at least one).  Deployments
    without a radio of their own use {!default_external_wireless}.  The
    runtime costs update deliveries with it; the adaptation study costs
    its full-reprogramming baseline over the same link. *)

val runtime_fram_bytes : Device.t -> int
(** FRAM bytes of the runtime's own persistent cells after a run was set
    up (Table 2's "ARTEMIS runtime" column). *)

(** {2 Fault-injection instrumentation}

    Hooks used by [Artemis_faultsim] to drive deterministic power
    failures through the runtime's crash windows and to check its
    invariants afterwards.  The runtime fires its own sites
    ([Site.rt_*], numbered in {!Artemis_nvm.Site}) through
    {!Artemis_nvm.Nvm.fire} on the device's store.  Normal runs pay one
    branch per site: no hook is installed and journaling is off. *)

type journal_entry =
  | Stepped of Artemis_fsm.Interp.event
      (** a monitor call over this event committed *)
  | Reinited of string list
      (** a path restart re-initialized the monitors watching these
          tasks *)
  | Adapted of { id : int; generation : int }
      (** a live property update committed its generation flip; the
          entry is journaled inside the same NVM transaction as the
          flip, so replay can swap suites at the exact point *)

type instrumented = {
  stats : Artemis_trace.Stats.t;
  journal : journal_entry list;
      (** committed monitor-call prefix, oldest first.  Re-executing it
          against a fresh suite must reproduce the monitors' persistent
          state - the fault-injection engine's golden oracle. *)
  partial : (Artemis_fsm.Interp.event * int) option;
      (** a monitor call was in flight when the run ended: the event and
          how many of the thread's steps had committed *)
  final_suite : Artemis_monitor.Suite.t;
      (** the active suite when the run ended (≠ the deployed suite once
          an adaptation applied) *)
  final_generation : int;  (** the active suite's generation *)
  adaptations : adaptation_record list;
      (** one delivery record per scheduled update, in scheduling order:
          its outcome, radio time and energy, and first-attempt and
          completion times *)
  max_call_energy : Energy.energy;
      (** the worst Monitor_work energy any single monitor-call attempt
          (one [resume] within one power cycle, including attempts cut
          short by injected failures) actually drew - the measurement the
          energy-admissibility bound must dominate *)
}

val run_instrumented :
  ?config:config ->
  ?adaptations:(int * Artemis_adapt.Adapt.update) list ->
  ?backend:Artemis_backend.Backend.b ->
  ?on_site:(Artemis_nvm.Site.t -> unit) ->
  ?probe:(string -> unit) ->
  Device.t -> Task.app -> Artemis_monitor.Suite.t ->
  instrumented
(** Like {!run}, with the monitor-call journal recorded, returning the
    final suite and the per-update records too: the entry point of the
    fault-injection engine and of the adaptation study.  [on_site], when
    given, is the store's hook ({!Artemis_nvm.Nvm.set_probe}) for the
    run: it sees every injection site by number (the NVM store's, the
    runtime's, the adaptation protocol's and the backend's), from just
    after the boot-time monitor reset until the run returns.  A hook
    raising {!Artemis_nvm.Nvm.Injected_failure} triggers
    {!Device.force_power_failure} and the run resumes from persistent
    state, exactly as after a capacitor brown-out.

    [probe] is the same hook seen through site labels:
    [fun s -> probe (Artemis_nvm.Site.label s)].
    @raise Invalid_argument if both are given. *)

(** Test-only chaos hooks for the oracle-sensitivity (mutation) suite:
    each flag re-introduces a known-bad behaviour hardened away by the
    PR2/PR4 campaigns, so the faultsim oracles can be demonstrated to
    fail, not just pass.  All default to [false]; production code must
    never set them.  The NVM-level hooks live in
    {!Artemis_nvm.Nvm.Chaos}. *)
module Chaos : sig
  val reorder_begin_mcall : bool ref
  (** [begin_monitor_call] raises the active flag {e before} re-arming
      the thread and clearing the failure accumulator (the pre-PR2
      ordering bug): a crash in the window delivers a stale verdict and
      journals an event no monitor stepped (golden re-execution). *)

  val drop_adapt_journal : bool ref
  (** The generation flip commits without its [Adapted] journal entry,
      so golden re-execution never learns the update applied (torn-suite
      golden oracle). *)

  val double_apply_action : bool ref
  (** The arbitrated corrective action is recorded twice per verdict
      (action-at-most-once oracle). *)

  val double_adapt_event : bool ref
  (** [Adaptation_applied] is logged twice for one committed flip
      (update-exactly-once oracle). *)

  val leak_on_recovery : bool ref
  (** Every injected-crash recovery allocates a fresh uniquely-named NVM
      cell (stable-footprint oracle). *)

  val reset : unit -> unit
  (** Clear every flag. *)
end
