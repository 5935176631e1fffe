(** Run statistics and the termination guard shared by every scheduler
    loop: the ARTEMIS runtime and the standalone Mayfly, checkpoint and
    InK baselines. *)

val stats : Device.t -> outcome:Artemis_trace.Stats.outcome -> Artemis_trace.Stats.t
(** Build run statistics from the device's accounting and trace log. *)

val max_loop_iterations : int
(** The default scheduler-loop iteration cap (200 000). *)

val guard :
  Device.t -> iterations:int -> limit:int -> Artemis_trace.Stats.outcome option
(** The loop's stop check, made once per iteration: once [iterations]
    exceeds [limit] (a loop making no progress) or the device's
    simulated-time horizon is exceeded, record [Horizon_reached] and
    return the [Did_not_finish] outcome; [None] means keep going. *)
