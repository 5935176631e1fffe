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
    decimals, rounded as [Printf]'s [%.2f] rounds the double.  Trace
    digests hash this text. *)

val pp : Format.formatter -> t -> unit
(** Prints {!render}'s text. *)

val to_literal : t -> string
(** Exact concrete-syntax duration literal: the largest unit dividing the
    value evenly ("5min", "100ms", "1500us").  Scanning the result with
    {!Scanner} yields the value back. *)

val to_string : t -> string
(** {!render}'s text. *)
