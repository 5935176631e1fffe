(** The unified intermittent-runtime backend interface (PR 10).

    The ARTEMIS runtime ({!Artemis_runtime.Runtime}) owns the scheduler
    loop, the monitor-call machinery and verdict application; what
    varies between intermittent-system families is {e how a task's
    effects become durable} and what that protocol costs.  A backend
    is one plain record {!b} describing exactly that seam:

    - {b execute}: run one task attempt and commit its effects together
      with the runtime's cursor advance (passed in as [commit]);
    - {b recover}: reboot-time repair, called at every scheduler loop
      entry (must be a cheap no-op when there is nothing to repair);
    - {b setup}: the backend's own persistent NVM cells, allocated once
      so the stable-footprint oracle holds across crashes, and its
      protocol costs, priced by the run's {!Cost_model}.

    Every backend's [execute], and the three standalone baseline loops
    ([Mayfly.run], [Checkpoint.run], [Ink.run]), run their attempts
    through the one {!attempt}; each adds only its own pre-cost, the
    writes that join the task transaction, a sealing cost, or (Alpaca)
    its own close.

    Every backend re-executes whole task bodies, so the WAR-analysis
    surface of a backend-hosted app is {!Task.bodies}.

    Because every backend runs the same monitors through the same
    runtime, monitor verdicts must agree across backends on a given
    scenario - the invariant the runtime matrix
    ([Artemis_faultsim.Matrix]) checks - while energy and recovery cost
    columns differ per family. *)

module Prng = Artemis_util.Prng
module Nvm = Artemis_nvm.Nvm
module Site = Artemis_nvm.Site
module Device = Artemis_device.Device
module Cost_model = Artemis_device.Cost_model
module Task = Artemis_task.Task

type outcome =
  | Committed  (** the task body ran and its effects are durable *)
  | Interrupted
      (** a power failure (or starvation) cut the attempt short; all
          task effects were rolled back or are recoverable by
          [recover] *)

type instance = {
  recover : unit -> unit;
      (** called at every scheduler loop entry, before the cursor is
          read: finish any commit a crash interrupted.  Must cost one
          cell read when there is nothing to do. *)
  execute : task:Task.t -> prng:Prng.t -> commit:(unit -> unit) -> outcome;
      (** run one attempt of [task], its body drawing from [prng];
          [commit ()] performs the runtime's own cursor write and must
          be made durable atomically with the task's effects. *)
}

type b = {
  name : string;
  injection_sites : Site.t list;
      (** Extra crash windows this backend's commit protocol exposes,
          each fired through {!Artemis_nvm.Nvm.fire} on the device's
          store.  Empty for backends whose commit point is the single
          NVM transaction commit. *)
  setup :
    model:Cost_model.t ->
    Device.t ->
    Task.app ->
    instance;
      (** Allocate the backend's persistent cells on [device] and return
          the per-run protocol hooks, their cycle costs priced by the
          run's cost [model].  Called once per run. *)
}

val attempt :
  ?seal:(unit -> Device.consume_result) ->
  ?close:(Task.t -> outcome) ->
  Device.t ->
  task:Task.t ->
  prng:Prng.t ->
  commit:(unit -> unit) ->
  outcome
(** Run one all-or-nothing attempt of [task]: open the NVM transaction,
    consume the task's energy as [App] (interrupted: [Interrupted], the
    power failure rolled the transaction back), run the body on the
    context [{ nvm = Device.nvm device; now = Device.now device; prng }]
    (built after that energy, so [now] is the completion time), apply
    [commit] (writes that join the transaction), then close.  The
    default close pays [seal] (a protocol cost that must complete
    before the commit becomes durable; none by default) and commits the
    transaction; [close] replaces it, as Alpaca's log-then-swap does.
    Once the close returns [Committed], and not before, the attempt
    records [Task_completed]. *)

val immortal : b
(** The reference backend: the paper's ARTEMIS task-transaction
    protocol.  Allocates no cells and reproduces the pre-refactor
    runtime behaviour exactly; the runtime matrix measures every other
    backend against it. *)
