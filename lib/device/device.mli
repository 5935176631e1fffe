(** Discrete-event simulator of an intermittently powered MCU.

    This is the substitute for the paper's MSP430FR5994 testbed.  The
    device owns the simulated FRAM ({!Artemis_nvm.Nvm}), the persistent
    clock, the capacitor and the charging policy; runtimes execute work by
    calling {!consume}, which advances time while draining the capacitor
    and transparently models brown-outs:

    - the partial work up to depletion still costs its time and energy;
    - volatile state and the open NVM transaction are lost;
    - the charging policy decides how long the device stays dark;
    - a reboot is logged and the caller is told the work was interrupted.

    All time and energy is accounted per {!category} so the overhead
    breakdowns of Figures 14-16 fall out of the accounting directly. *)

open Artemis_util

type t

type category =
  | App  (** application task bodies *)
  | Runtime_work  (** intermittent-runtime bookkeeping *)
  | Monitor_work  (** property checking *)

type consume_result =
  | Completed  (** the whole duration ran without interruption *)
  | Interrupted  (** a power failure cut the work short; device rebooted *)
  | Starved  (** power failed and the harvester can never recharge *)

val create :
  ?capacitor:Artemis_energy.Capacitor.t ->
  ?policy:Artemis_energy.Charging_policy.t ->
  ?clock:Artemis_clock.Persistent_clock.t ->
  ?horizon:Time.t ->
  unit ->
  t
(** Defaults: a 100 mJ capacitor with 90 mJ usable budget, a fixed
    1-minute charging delay, a 1 ms-granularity drift-free clock, and a
    6-hour simulation horizon.  The device (and everything built on it:
    nvm, runtime, monitors) records into the calling domain's current
    observability context, which receives this device's simulated
    clock. *)

val nvm : t -> Artemis_nvm.Nvm.t

val obs : t -> Artemis_obs.Obs.t
(** The device's observability context (also reachable as
    [Nvm.obs (nvm t)]). *)

val log : t -> Artemis_trace.Log.t
val capacitor : t -> Artemis_energy.Capacitor.t

val set_policy : t -> Artemis_energy.Charging_policy.t -> unit
val policy : t -> Artemis_energy.Charging_policy.t
(** Replace the charging policy.  Scenario builders pick their own
    policy at {!create} time; the fleet runner overrides it here to
    sweep one scenario across harvester profiles before the run
    starts. *)

val now : t -> Time.t
(** Timestamp as the software observes it (persistent-clock read). *)

val sim_time : t -> Time.t
(** Exact simulation time. *)

val record : t -> Artemis_trace.Event.t -> unit
(** Log an event at the current time. *)

val set_on_record : t -> (Artemis_trace.Event.t -> unit) option -> unit
(** Install (or clear) an event tap invoked synchronously by {!record}
    after the event has been logged.  Every runtime backend logs through
    this single chokepoint, so a subscriber - the input-freshness
    tracker ({!Artemis_consistency.Freshness}) timestamps producer
    completions and audits consumer starts/commits here - observes all
    of them without the device depending on it.  The hook must not
    raise and must not call back into the device. *)

val consume :
  t -> category -> ?during:string -> power:Energy.power -> duration:Time.t ->
  unit -> consume_result
(** Execute work of the given constant power draw and duration.
    [during] names the task for the power-failure log entry.  A
    non-positive power advances time without draining.
    @raise Invalid_argument on a negative duration. *)

val force_power_failure : t -> ?during:string -> unit -> consume_result
(** Model a power failure right now, independent of the capacitor level:
    abort volatile/transactional state, log the failure and recharge via
    the charging policy.  Returns [Interrupted] (device rebooted) or
    [Starved].  This is the recovery half of injected fault-simulation
    failures ({!Artemis_nvm.Nvm.Injected_failure}). *)

val schedule_failure : t -> at:Time.t -> unit
(** Test hook: force a power failure the next time [consume] crosses the
    given absolute simulation time (the capacitor is drained at that
    point regardless of its level). *)

val horizon_exceeded : t -> bool

(* Accounting *)

val time_in : t -> category -> Time.t
val energy_in : t -> category -> Energy.energy
val off_time : t -> Time.t
val total_energy : t -> Energy.energy
val power_failures : t -> int
val reboots : t -> int
