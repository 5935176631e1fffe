(** Machine-readable exports of traces and run statistics, for plotting
    the reproduced figures outside the harness. *)

val log_to_csv : Log.t -> string
(** Columns: [time_us,event,task,path,detail]; one row per event, header
    included, RFC-4180 quoting for the detail field. *)

val log_digest : Log.t -> string
(** Hex MD5 of the rendered timeline: two runs are byte-identical iff
    their digests are equal (the fault-injection replay check). *)

val stats_to_json : Stats.t -> string
(** A flat JSON object (hand-rendered; keys are stable and documented by
    the implementation).  Always valid JSON: non-finite floats render as
    [null] via {!Artemis_util.Json.float_lit}. *)

val stats_to_csv_row : Stats.t -> string
val stats_csv_header : string
(** Matching header/row pair for aggregating many runs into one CSV.
    Both derive from the same field-spec list as {!stats_to_json}, so
    header, row and JSON keys cannot desync. *)

val reconcile_metrics :
  Artemis_obs.Obs.t -> Stats.t -> (string * int * int) list
(** Cross-check the counters a context recorded against the log-derived
    stats.  Returns [(name, stats_value, counter_value)] for every
    counter that disagrees - empty when the context recorded metrics
    for the whole run (the counters are bumped at the same
    [Device.record] chokepoint the stats are computed from). *)
