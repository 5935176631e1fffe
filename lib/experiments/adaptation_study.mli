(** Live property adaptation vs full reprogramming (PR 4).

    Delivers property updates to the running health benchmark through
    the crash-atomic adaptation protocol and compares the measured
    radio time/energy and end-to-end latency against shipping a whole
    firmware image over the same BLE-class link. *)

open Artemis

type row = {
  label : string;
  update : Adapt.update;
  record : Runtime.adaptation_record;
  final_generation : int;
  final_monitors : string list;  (** deployment order after the update *)
  stats : Stats.t;
}

type study = {
  rows : row list;
  reprogram_bytes : int;  (** full firmware image shipped by the baseline *)
  reprogram_time : Time.t;
  reprogram_energy : Energy.energy;
}

val updates : (string * Adapt.update) list
(** The studied updates: a compatible replacement (persistent state
    migrated) and a removal-plus-addition. *)

val run : ?at:int -> unit -> study
(** Run the health benchmark once per update, delivering it at scheduler
    iteration [at] (default 40) under intermittent power. *)

val applied : row -> bool
val energy_ratio : study -> row -> float
(** Reprogram energy over this update's measured radio energy. *)

val render : study -> string
