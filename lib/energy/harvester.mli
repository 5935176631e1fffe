(** Ambient-energy harvester models.

    The paper's testbed uses a Powercast RF transmitter/receiver pair; its
    delivered power depends on placement and duty-cycling, which the
    evaluation abstracts into a single "charging time" variable.  We keep
    both levels: harvester models that integrate incoming power over time,
    and (in {!Charging_policy}) the paper's direct fixed-delay knob. *)

open Artemis_util

type t =
  | Constant of Energy.power
      (** steady incoming power (e.g. a well-placed RF receiver) *)
  | Duty_cycle of { period : Time.t; on_fraction : float; rate : Energy.power }
      (** power arrives during the first [on_fraction] of each period *)
  | Trace of (Time.t * Energy.power) array
      (** piecewise-constant profile: [(t_i, p_i)] means power is [p_i]
          from [t_i] until the next entry; the last rate holds forever.
          Entries must start at 0 and be strictly increasing. *)

val duty_cycle : avg_uw:float -> t
(** The harvester study's duty-cycled source: a 2-minute period whose
    first half delivers twice [avg_uw], so the time-averaged power is
    [avg_uw] µW. *)

val validate : t -> (unit, string) result
(** Refuses a rate that is negative or not finite, a duty cycle whose
    period is not positive, whose on-fraction lies outside [0, 1] or
    whose energy per period is not finite, and a trace that is empty,
    does not start at 0 or is not strictly increasing. *)

val rate_at : t -> Time.t -> Energy.power
(** Incoming power at absolute time [t]. *)

val harvested : t -> from_:Time.t -> until:Time.t -> Energy.energy
(** Energy collected over the interval (exact piecewise integration).
    @raise Invalid_argument if [until < from_]. *)

val time_to_harvest :
  t -> now:Time.t -> Energy.energy -> Time.t option
(** How long from [now] until the given energy has been collected;
    [None] if it never will be (e.g. a trace that ends at zero power). *)
