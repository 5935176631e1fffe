(** Local-continuation micro-library, the OCaml stand-in for the
    ImmortalThreads C macros the paper generates monitors with
    (Section 4.2.3).

    A thread is a fixed sequence of steps with a persistent program
    counter: after a power failure, execution resumes from the first step
    that had not completed - no completed step ever re-runs.  Step bodies
    must confine their effects to persistent cells (or be idempotent), as
    on the real system, where every monitor variable lives in FRAM.

    The ARTEMIS runtime runs its [callMonitor] sequence as such a thread;
    [monitorFinalize] at boot (Figure 8, line 16) is simply "run the
    remaining steps". *)

open Artemis_nvm

type t

val create :
  Nvm.t -> region:Nvm.region -> name:string -> steps:(unit -> unit) array -> t
(** Allocates a 2-byte persistent program counter named ["ic:<name>"].
    @raise Invalid_argument on an empty step array. *)

val pc : t -> int

val steps : t -> (unit -> unit) array
(** The thread's step bodies, in program order - the access-recording
    surface for the static WAR-hazard analysis
    ({!Artemis_consistency.War.analyze_steps}): each step runs inside
    its own transaction, so a step-local read-then-plain-write is a
    re-execution hazard exactly as in a task body. *)

val fresh : t -> bool
(** No step has run since the last {!reset} (pc = 0). *)

val completed : t -> bool
val in_progress : t -> bool
(** Started but not completed: exactly the state [monitorFinalize] must
    resume from after a reboot. *)

type progress = Ran of int  (** index of the step just executed *) | Done

val run_step : t -> progress
(** Execute the current step and persist the advanced counter in one NVM
    transaction: a power failure anywhere inside the step rolls its
    effects back (so the re-run starts from the pre-step state), and a
    committed step never re-runs.  Step bodies should write persistent
    cells via [Nvm.write_join] so their updates join the step
    transaction; plain [Nvm.write]s bypass it and must be idempotent.
    @raise Invalid_argument if a transaction is already open on the
    store (steps may not run inside a task transaction). *)

val run_to_completion : t -> unit
(** Run every remaining step. *)

val reset : t -> unit
(** Rewind to step 0 for the next invocation. *)
