(** The one scheduler loop every runtime family runs through: the ARTEMIS
    runtime and the standalone Mayfly, checkpoint and InK baselines. *)

val max_loop_iterations : int
(** The default scheduler-loop iteration cap (200 000). *)

val run :
  ?limit:int ->
  Device.t ->
  (int -> Artemis_trace.Stats.outcome option) ->
  Artemis_trace.Stats.t
(** [run ?limit device step] records [Boot], then calls [step i] for
    iterations [i = 1, 2, ...] until it returns an outcome.  Before each
    iteration it stops the run once [i] exceeds [limit] (default
    {!max_loop_iterations}: a loop making no progress) or the device's
    simulated-time horizon is exceeded, recording [Horizon_reached] and
    ending [Did_not_finish].  A [Completed] outcome is recorded as
    [App_completed].  The result is built from the device's accounting
    and trace log. *)
