(** Concrete-syntax printer for property specifications.

    [Parser.parse_exn (to_string spec)] equals [spec] (round-trip law,
    property-tested). *)

val duration : Artemis_util.Time.t -> string
(** Exact concrete-syntax duration: the largest unit that divides the
    value evenly ("5min", "100ms", "1500us"). *)

val to_string : Ast.t -> string
