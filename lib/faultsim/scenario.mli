(** Catalogue of self-contained device+application+property scenarios the
    fault-injection engine can rebuild from scratch for every run.

    Determinism contract: [build] must construct a fresh device, fresh
    NVM and fresh monitors every time, with no dependence on wall-clock
    time or global mutable state, so that two runs of the same injection
    schedule produce byte-identical traces. *)

open Artemis

type built = {
  device : Device.t;
  app : Task.app;
  suite : Suite.t;
  machines : Fsm.Ast.machine list;
      (** the deployed property machines, in deployment order - the
          golden oracle re-executes them on a pristine store *)
  config : Runtime.config;
  adaptations : (int * Adapt.update) list;
      (** live property updates delivered mid-run (PR 4); empty for the
          classic scenarios *)
  freshness : Consistency.Freshness.t option;
      (** input-freshness tracker wired to the device's record
          chokepoint (PR 7); its violations become the campaign's
          [input-freshness] oracle.  [None] for scenarios without a
          freshness budget. *)
  backend : Backend.b;
      (** the task-execution backend the run hosts (PR 10);
          {!Artemis.Backend.immortal} for the classic scenarios *)
}

type t = {
  name : string;
  description : string;
  build : engine:Monitor.engine option -> seed:int -> built;
      (** [seed] feeds the task-context PRNG; [engine] selects the
          monitor execution backend (default [Table]) *)
}

val quickstart : t
(** [examples/quickstart.ml] verbatim: sample -> doomed transmit under a
    3.2 mJ capacitor, one [maxTries: 3 onFail: skipPath] property. *)

val health : t
(** The Figure 4-6 wearable benchmark: three paths, the full Figure 5
    property specification, 1-minute charging delay. *)

val quickstart_adapt : t
(** {!quickstart} plus a live update at iteration 3 replacing the
    maxTries property - drives the campaign through the update-window
    crash sites. *)

val health_adapt : t
(** {!health} plus a live update at iteration 40 tightening the MITD
    window (persistent [attempts] migrated) and removing
    [maxDuration_send]. *)

val quickstart_fresh : t
(** {!quickstart} plus a 10-minute input-freshness budget on
    [transmit <- sample]: green under every clean campaign, the mutation
    target for the freshness chaos hooks. *)

val stale_read : t
(** Deliberately buggy: the consumer's 10 s freshness budget is shorter
    than the 30 s charging delay, so any injected crash between the
    producer's and the consumer's commits makes the consumed input
    stale.  Only the [input-freshness] oracle fires. *)

val war_buggy : t
(** Deliberately buggy: a task read-modify-writes a Runtime-region FRAM
    cell outside its transaction.  Invisible to all five dynamic
    oracles (task transactions only guard the Application region) -
    exactly the gap the static WAR pass
    ({!Artemis.Consistency.War}) closes. *)

val livelock_prop : t
(** Seeded over-budget scenario (PR 9): a micro-capacitor device
    (1.0 uJ usable) whose deployed property is admissible, plus a
    scheduled OTA update whose 20-store monitor body bounds far above
    one charge.  The energy-admissibility report must classify the
    payload "may livelock" and the adaptation validate step must refuse
    it with an [energy-inadmissible] reason; the update is scheduled
    past the app's lifetime, so ordinary runs complete cleanly. *)

val with_freshness :
  t ->
  name:string ->
  description:string ->
  budget:Artemis.Time.t ->
  reads:(string * string list) list ->
  t
(** Attach an input-freshness tracker (budget + consumer/source
    declarations) to a scenario; the rebuilt scenario allocates a fresh
    tracker per build, keeping parallel campaigns deterministic. *)

val with_engine : Monitor.engine -> t -> t
(** Pin the scenario's monitor engine: the returned scenario builds the
    same device and application but deploys its suite with [engine],
    ignoring any engine passed to [build].  Name and description are
    unchanged, so campaign reports stay comparable across engines. *)

val with_backend : Backend.b -> name:string -> description:string -> t -> t
(** Run the scenario's application under a different task-execution
    backend (PR 10): same device, monitors and properties, a different
    commit protocol.  The campaign's injection numbering is unchanged -
    backend-specific sites simply never fire under other backends. *)

val quickstart_alpaca : t
(** {!quickstart} under the checkpoint-free Alpaca backend: tasks
    privatize their writes and commit via the two-phase log-then-swap
    protocol, exposing the four [alpaca.*] injection sites. *)

val all : t list
val find : string -> t option
