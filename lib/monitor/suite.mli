(** The set of application-specific monitors deployed with one
    application, in deployment order, and the arbitration rule the
    runtime applies when several of them fail on the same event.

    Like the paper's callMonitor (Figure 10), delivering an event steps
    every deployed monitor in order; a monitor whose machine does not
    watch the event's task only takes the implicit self-transition.  The
    runtime charges energy only for the monitors that watch the event
    ({!Monitor.watches_event}). *)

open Artemis_nvm
open Artemis_fsm

type t

val of_tables : ?engine:Monitor.engine -> Nvm.t -> Table.t list -> t
(** Deploys one fresh monitor per lowered machine, in order: fresh FRAM
    cells on [nvm] and a fresh {!Table.inst}, sharing the immutable
    table.  [engine] defaults to [Table] (see {!Monitor.create}).  The
    faultsim scenarios lower their spec once per process and deploy
    every run's suite through here; the golden oracle deploys its
    pristine suite from the same tables. *)

val create : ?engine:Monitor.engine -> Nvm.t -> Ast.machine list -> t
(** {!of_tables} over {!Table.compile}: lowers each machine, then deploys
    it.  A spec deployed through [Artemis.compile_and_deploy_exn] is
    lowered here; an OTA payload is lowered by [Adapt.payload_tables],
    and a faultsim scenario's spec once per process by [Scenario].
    @raise Failure if a machine is ill-typed. *)

val of_monitors : Monitor.t list -> t
(** A suite over already-created monitors, in the given order.  Used by
    the live-adaptation protocol, which creates replacement monitors
    itself so it can control cell naming and state migration. *)

val monitors : t -> Monitor.t list

val find : t -> string -> Monitor.t option
(** The deployed monitor with that machine name, if any. *)

val hard_reset : t -> unit

val step_all : t -> Interp.event -> Interp.failure list
(** Deliver the event to every monitor, concatenating the reported
    failures in deployment order. *)

val reinit_for_tasks : t -> tasks:string list -> unit
(** Path restart: re-initialize every monitor watching one of the given
    tasks (Section 3.3).  [On_any] machines watch every task. *)

(** {2 Arbitration} *)

val severity : Ast.action -> int
(** Deterministic action-severity order (DESIGN.md decision 3):
    skipPath (4) > restartPath (3) > completePath (2) > skipTask (1) >
    restartTask (0). *)

val arbitrate : Interp.failure list -> Interp.failure option
(** The failure whose action the runtime executes: highest severity,
    first-reported among equals; [None] when the list is empty. *)
