(** Scalability of property checking (the paper's contribution 3 and
    problem P3).

    The paper argues that fused designs cannot scale their property set,
    while ARTEMIS adds properties without touching application or runtime
    code.  This study deploys the benchmark with its property set
    replicated k times (every copy is a real, independently evaluated
    monitor) and measures how the monitor overhead grows while the
    application time stays untouched: the per-event cost is the dispatch
    plus a per-property term for each monitor the event can fire, so
    overhead grows linearly in the {e watching} copies.

    The companion non-watching sweep deploys properties that name only
    tasks the application never runs: task-indexed dispatch never invokes
    them, so monitor overhead must stay flat (sublinear in the deployed
    count) while only their FRAM footprint grows. *)

val replicated_machines : int -> Artemis.Fsm.Ast.machine list
(** [k] independent, renamed copies of the benchmark property set — the
    workload both the sweep below and the bench's dispatch kernels deploy. *)

type row = {
  copies : int;  (** replication factor of the benchmark property set *)
  monitors : int;  (** deployed monitor count *)
  monitor_ms : float;
  app_s : float;
  monitor_fram : int;
}

val run :
  ?engine:Artemis.Monitor.engine ->
  ?factors:int list ->
  ?jobs:int ->
  unit ->
  row list
(** Default factors: 1, 2, 4, 8.  [engine] selects the monitor execution
    backend ([Table] by default), letting the bench compare the two.
    [jobs] (default 1) distributes the factor sweep over that many
    domains; each row builds its own device, so rows are independent and
    the result order is fixed. *)

val render : row list -> string

type non_watching_row = {
  extra : int;  (** non-watching properties deployed on top of the base set *)
  total_monitors : int;
  nw_monitor_ms : float;
  nw_monitor_fram : int;
}

val run_non_watching :
  ?engine:Artemis.Monitor.engine ->
  ?extras:int list ->
  ?jobs:int ->
  unit ->
  non_watching_row list
(** Default extras: 0, 8, 32, 128 non-watching properties on top of the
    base benchmark set. *)

val render_non_watching : non_watching_row list -> string
