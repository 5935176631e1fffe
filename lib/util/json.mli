(** Minimal JSON support shared by every exporter in the harness.

    Two halves, deliberately small so the simulator keeps zero external
    dependencies:

    - {b rendering helpers} used by {!module:Artemis_trace.Export}, the
      observability layer and the fault-injection reports, so every
      hand-rolled JSON emitter escapes strings and renders floats the
      same (JSON-safe) way;
    - a {b strict parser} used as the project's JSON checker: the golden
      tests and the CLIs re-parse what the emitters produced instead of
      trusting them. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {1 Rendering} *)

val escape : string -> string
(** Backslash-escape quotes, backslashes, newlines and control
    characters; the result is valid between double quotes. *)

val quote : string -> string
(** [escape] wrapped in double quotes. *)

val float_lit : float -> string
(** JSON-safe float literal with three decimals ([%.3f]).  JSON has no
    [nan] or [inf] tokens, so non-finite values render as [null] instead
    of corrupting the document. *)

val int_lit : int -> string

val add_int : Buffer.t -> int -> unit
(** Append exactly {!int_lit}'s bytes, [min_int] included, without
    allocating: the one integer writer of every renderer a campaign
    run pays for (times, events, footprints, report rows). *)

(** {1 Parsing} *)

val parse : string -> (t, string) result
(** Strict recursive-descent parse of a complete document (one value,
    then end of input).  Error messages carry the byte offset. *)

val parse_exn : string -> t

(** {1 Accessors (for tests and validators)} *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val to_num : t -> float option
val to_str : t -> string option
val to_arr : t -> t list option
