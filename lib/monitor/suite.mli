(** The set of application-specific monitors deployed with one
    application, and the arbitration rule the runtime applies when
    several of them fail on the same event.

    Deployment builds a task-indexed dispatch table: each event only
    touches the monitors that can react to it (monitors naming the
    event's task, plus the always-run [On_any] watchers), so delivering
    an event is O(relevant monitors), not O(deployed monitors). *)

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
(** Build a suite (and its dispatch index) over already-created monitors.
    Used by the live-adaptation protocol, which creates replacement
    monitors itself so it can control cell naming and state migration. *)

val monitors : t -> Monitor.t list

(** {2 Mutation (PR 4 live adaptation)}

    All three are functional: they return a new suite sharing the
    untouched monitors (and their NVM cells) with the old one, so the
    adaptation protocol can hold both generations until its single-cell
    generation flip commits. *)

val find : t -> string -> Monitor.t option
(** The deployed monitor with that machine name, if any. *)

val add : t -> Monitor.t -> t
(** @raise Invalid_argument if a monitor with the same name is deployed. *)

val remove : t -> string -> t
(** @raise Invalid_argument if no monitor with that name is deployed. *)

val replace : t -> Monitor.t -> t
(** Swap in [monitor] for the same-named deployed monitor, preserving
    deployment order.
    @raise Invalid_argument if no monitor with that name is deployed. *)

val hard_reset : t -> unit

val relevant_monitors : t -> Interp.event -> Monitor.t list
(** The monitors that can react to the event, in deployment order: one
    hash lookup on the event's task ([On_any] watchers for unknown
    tasks). *)

val step_all : t -> Interp.event -> Interp.failure list
(** Deliver the event to every relevant monitor, concatenating the
    reported failures in deployment order.  Equivalent to
    {!step_all_unindexed} (skipped monitors could only take the implicit
    self-transition). *)

val step_all_unindexed : t -> Interp.event -> Interp.failure list
(** Reference path: deliver the event to {e every} monitor (each machine
    decides relevance).  Kept for differential tests and as the
    interpreted-era baseline in the benchmarks. *)

val reinit_for_tasks : t -> tasks:string list -> unit
(** Path restart: re-initialize every monitor watching one of the given
    tasks (Section 3.3).  [On_any] machines watch every task. *)

val fram_bytes : t -> int

(** {2 Arbitration} *)

val severity : Ast.action -> int
(** Deterministic action-severity order (DESIGN.md decision 3):
    skipPath (4) > restartPath (3) > completePath (2) > skipTask (1) >
    restartTask (0). *)

val arbitrate : Interp.failure list -> Interp.failure option
(** The failure whose action the runtime executes: highest severity,
    first-reported among equals; [None] when the list is empty. *)
