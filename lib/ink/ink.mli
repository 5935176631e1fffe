(** InK-style reactive baseline (Yıldırım et al., SenSys'18), the last
    executable row of the paper's Table 3.

    InK is a reactive kernel: computation is organized into {e task
    threads} triggered by timestamped events; a priority scheduler picks
    the highest-priority ready thread and runs its task chain to
    completion, power-failure-resiliently.  Its timing support is a fixed
    reaction: when the triggering event's data has expired by the time a
    task starts, the kernel {e evicts} the whole thread ("runtime evicts
    thread upon expiration") - there is no per-property action language
    and no bounded-attempt construct.

    The model here: each thread is armed by one event at a given arrival
    time; threads become ready at their arrival time and are scheduled by
    descending priority (FIFO among equals, by arrival).  Tasks are the
    same atomic, transactional {!Artemis_task.Task.t} values the other
    runtimes execute. *)

open Artemis_util
open Artemis_device
open Artemis_task

type thread = {
  thread_name : string;
  priority : int;  (** higher is scheduled first *)
  tasks : Task.t list;  (** the chain run when the event fires *)
  expiry : Time.t option;
      (** maximum age of the triggering event at any task start; older
          means the kernel evicts the thread *)
}

type armed = { thread : thread; arrival : Time.t }
(** One event instance arming a thread. *)

val validate : armed list -> (unit, string) result
(** Non-empty; thread names unique; chains non-empty; arrivals
    non-negative. *)

val bodies : armed list -> (string * (Task.context -> unit)) list
(** Every distinct task body across all armed threads, named, in
    first-appearance order: the access-recording surface for the static
    WAR-hazard analysis ({!Artemis_consistency.War.analyze_bodies}). *)

type outcome = {
  stats : Artemis_trace.Stats.t;
  completed_threads : string list;  (** in completion order *)
  evicted_threads : string list;
}

val run : Device.t -> armed list -> outcome
(** Process every armed event to completion or eviction.  Each task
    event pays 320 cycles of kernel bookkeeping as [Runtime_work],
    priced by {!Cost_model.default}.
    @raise Invalid_argument if {!validate} rejects the input. *)

val backend : Artemis_backend.Backend.b
(** The unified-backend adapter (PR 10, [name = "ink"]): runs ARTEMIS
    task apps under the InK execution discipline inside the shared
    runtime - kernel event-dispatch cost (priced by the run's cost
    model) before each task transaction, scheduling progress
    ([inkb.sched]) committed atomically with the task. *)
