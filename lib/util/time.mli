(** Simulated time values.

    All simulated instants and durations in the ARTEMIS reproduction are
    expressed as a whole number of microseconds.  Using an integer
    representation keeps the discrete-event simulation fully deterministic
    (no floating-point drift between runs), which the reproduction tests
    rely on. *)

type t
(** An instant or a duration, in microseconds.  The type is used for both
    because the paper's monitors only ever subtract and compare
    timestamps. *)

val zero : t

val of_us : int -> t
val of_ms : int -> t
val of_sec : int -> t
val of_min : int -> t

val of_sec_f : float -> t
(** [of_sec_f s] rounds [s] seconds to the nearest microsecond. *)

val to_us : t -> int
val to_ms_f : t -> float
val to_sec_f : t -> float
val to_min_f : t -> float

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b].  May be negative; see {!is_negative}. *)

val scale : t -> int -> t
val divide : t -> int -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t
val is_negative : t -> bool

val render : Buffer.t -> t -> unit
(** The one human-readable rendering, with an adaptive unit: ["42us"]
    below 1 ms, then ["1.50ms"], ["2.50s"] and ["2.00min"] with two
    decimals.  Trace digests hash this text.

    The decimals are exactly what [Printf]'s [%.2f] prints for the
    double [x] that {!to_ms_f}, {!to_sec_f} or {!to_min_f} returns:
    [%.2f] rounds [x]'s binary value, so 1,005 us prints ["1.00ms"]
    and 1,995 us ["2.00ms"].  They are computed with integers.  Let
    [s] be the unit in us, [q = s / 100], [a = |t|], [n = a / q] and
    [m = a mod q]: [m < q/2] prints [n] hundredths and [m > q/2]
    prints [n + 1].  This is exact because for [a < 2^53] the product
    [x * 100] lies within [(a/q) * 2^-53 < 1/q] of [a/q], while every
    non-midpoint is at least [1/q] from the rounding boundary.  At a
    decimal midpoint, [m = q/2], the sign of [Float.fma x s (-a)]
    decides, since its single rounding keeps the sign of [x*s - a]:
    positive prints [n + 1], negative [n], and an exact zero rounds
    half to even, as [%.2f] does.  From 2^53 us on, [x] goes through
    the C formatter itself. *)

val pp : Format.formatter -> t -> unit
(** Prints {!render}'s text. *)

val to_literal : t -> string
(** Exact concrete-syntax duration literal: the largest unit dividing the
    value evenly ("5min", "100ms", "1500us").  Scanning the result with
    {!Scanner} yields the value back. *)

val to_string : t -> string
(** {!render}'s text. *)
