(** Energy and power quantities for the simulated energy-harvesting device.

    Energy is measured in microjoules and power in microwatts, carried as
    floats so that fractional draw over short intervals accumulates
    correctly.  The invariant [consumed = power * seconds] links the two
    units: 1 uW over 1 s is 1 uJ. *)

type energy
(** Microjoules. *)

type power
(** Microwatts. *)

val zero : energy
val uj : float -> energy
val mj : float -> energy
val to_uj : energy -> float
val to_mj : energy -> float

val uw : float -> power
val mw : float -> power
val to_uw : power -> float

val add : energy -> energy -> energy
val sub : energy -> energy -> energy
(** [sub a b] clamps at {!zero}: a capacitor cannot go negative. *)

val sub_exact : energy -> energy -> energy
(** Like {!sub} but without clamping (for accounting deltas). *)

val scale : energy -> float -> energy

val compare : energy -> energy -> int
val ( <= ) : energy -> energy -> bool
val ( < ) : energy -> energy -> bool
val ( >= ) : energy -> energy -> bool
val min : energy -> energy -> energy

val consumed : power -> Time.t -> energy
(** [consumed p dt] is the energy drawn by a constant load [p] over
    duration [dt]. *)

val time_to_consume : power -> energy -> Time.t
(** [time_to_consume p e] is how long the load [p] takes to draw [e].
    @raise Invalid_argument if [p] is not strictly positive. *)

val add_power : power -> power -> power

val pp_energy : Format.formatter -> energy -> unit
