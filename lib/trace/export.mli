(** Machine-readable exports of traces, for plotting the reproduced
    figures outside the harness, and the metrics/stats cross-check. *)

val log_to_csv : Log.t -> string
(** Columns: [time_us,event,task,path,detail]; one row per event, header
    included, RFC-4180 quoting for the detail field. *)

val log_digest : Log.t -> string
(** Hex MD5 of the rendered timeline: two runs are byte-identical iff
    their digests are equal (the fault-injection replay check). *)

val reconcile_metrics :
  Artemis_obs.Obs.t -> Stats.t -> (string * int * int) list
(** Cross-check the counters a context recorded against the log-derived
    stats.  Returns [(name, stats_value, counter_value)] for every
    counter that disagrees - empty when the context recorded metrics
    for the whole run (the counters are bumped at the same
    [Device.record] chokepoint the stats are computed from). *)
