(** Shared experimental setup: the calibrated benchmark device and
    one-call runners for both systems (Section 5 "Experimental Setup").

    The capacitor is sized (17.5 mJ usable) so that, as in the paper's
    testbed, a full charge completes [accel] but not [accel]+[classify]:
    every pass over path 2 browns out before [send] starts, which is what
    makes the MITD property between [accel] and [send] bite once charging
    delays exceed five minutes (DESIGN.md, cost-model calibration). *)

open Artemis

type power_supply =
  | Continuous  (** bench power supply: capacitor never depletes *)
  | Intermittent of Time.t  (** RF harvesting with this charging delay *)

val device : ?horizon:Time.t -> ?clock:Persistent_clock.t -> power_supply -> Device.t

type system = Artemis_runtime | Mayfly_runtime

type run = {
  stats : Stats.t;
  device : Device.t;
  handles : Health_app.handles;
}

val run_health :
  ?temp_base:float ->
  ?horizon:Time.t ->
  ?clock:Persistent_clock.t ->
  ?options:To_fsm.options ->
  ?config:Runtime.config ->
  ?adaptations:(int * Adapt.update) list ->
  ?engine:Monitor.engine ->
  system ->
  power_supply ->
  run
(** Build a fresh device, deploy the health-monitoring benchmark with its
    Figure 5 specification (or the Mayfly subset), run it once.
    [adaptations] (ARTEMIS only) schedules live property updates;
    [engine] (ARTEMIS only) selects the monitor execution backend. *)

val minutes : Stats.t -> float
(** Total execution time in minutes. *)

val millijoules : Stats.t -> float
