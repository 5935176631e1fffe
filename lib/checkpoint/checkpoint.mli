(** TICS-style checkpoint-based intermittent runtime (the other system
    family of Section 2 and Table 3).

    Checkpointing systems snapshot volatile state at programmer-defined
    points and resume from the last snapshot after a power failure; TICS
    additionally enforces time consistency through source-code annotations
    that bound the age of the data a code region consumes, running a
    programmer-specified handler on expiration.

    The simulated model: a {e program} is a sequence of {e segments}
    (code between checkpoints).  Completing a segment takes a checkpoint
    (with a fixed cycle cost and a declared snapshot size); a power
    failure rolls execution back to the last checkpoint.  A segment may
    carry a {e freshness annotation}: when it is about to (re-)execute and
    the data produced by an earlier segment is older than the window, the
    annotation's handler runs - restart from a named segment, or skip the
    current one (the two reactions TICS's expiration code typically
    implements).  Like TICS - and unlike ARTEMIS - there is no bounded-
    attempt construct, so a freshness window shorter than the charging
    delay loops forever.

    A segment's data effects and its checkpoint commit atomically (the
    double-buffered snapshot commit real checkpointing systems use to
    close the WAR window): a power failure anywhere between the segment's
    start and its checkpoint completion discards both, so re-execution
    never duplicates effects - property-tested under random failure
    injection. *)

open Artemis_util
open Artemis_device
open Artemis_task

type expiration_action =
  | Restart_from of string  (** jump back to the named segment *)
  | Skip_segment  (** drop the stale consumer and continue *)

type annotation = {
  data_from : string;  (** producing segment *)
  within : Time.t;  (** maximum data age at consumer (re-)start *)
  on_expire : expiration_action;
}

type segment = {
  task : Task.t;
      (** the code between two checkpoints, run as one task attempt *)
  snapshot_bytes : int;  (** volatile state captured by its checkpoint *)
  freshness : annotation option;
}

val segment :
  name:string ->
  duration:Time.t ->
  power:Energy.power ->
  ?body:(Task.context -> unit) ->
  ?snapshot_bytes:int ->
  ?freshness:annotation ->
  unit ->
  segment
(** [snapshot_bytes] defaults to 64 (registers + a small stack frame).
    @raise Invalid_argument on an empty name or negative duration (from
    {!Task.make}) or a negative snapshot size. *)

type program = { program_name : string; segments : segment list }

val validate : program -> (unit, string) result
(** Segment names unique and non-empty; annotation references resolve to
    earlier segments; [Restart_from] targets exist and precede the
    annotated segment. *)

val bodies : program -> (string * (Task.context -> unit)) list
(** Segment bodies in program order: the access-recording surface for
    the static WAR-hazard analysis
    ({!Artemis_consistency.War.analyze_bodies}) - a segment is the
    checkpoint runtime's unit of re-execution. *)

val run : Device.t -> program -> Artemis_trace.Stats.t
(** One program execution.  Checkpoint (900 cycles) and restore (600
    cycles) work is accounted as [Runtime_work], priced by
    {!Cost_model.default}; segment bodies as [App].  Events are logged
    into the device trace using the task-event vocabulary (a segment is
    logged as a task; a rollback shows as a repeated start).
    @raise Invalid_argument if {!validate} rejects the program. *)

val backend : Artemis_backend.Backend.b
(** The unified-backend adapter (PR 10, [name = "checkpoint"]): runs
    ARTEMIS task apps under the TICS/checkpoint commit protocol inside
    the shared runtime - restore cost on every cold entry, snapshot cost
    inside every task commit, both priced by the run's cost model.
    Allocates [cpb.live] (RAM) and the double-buffered [cpb.snapshot]
    cell. *)
