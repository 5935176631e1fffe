(** Task-based intermittent application model (Section 3.1).

    An application is a sequence of {e paths}; a path is a sequence of
    atomic tasks executed in order.  One application run executes each
    path once, in index order, subject to the actions monitors inject
    (restart/skip/complete).  Tasks are all-or-nothing: the runtime runs
    a task's body inside an NVM transaction committed at task end. *)

open Artemis_util
open Artemis_nvm

type context = {
  nvm : Nvm.t;
  now : Time.t;  (** task logical start time (persistent-clock read) *)
  prng : Prng.t;  (** deterministic randomness for synthetic sensors *)
}

type t = private {
  name : string;
  duration : Time.t;  (** uninterrupted execution time *)
  power : Energy.power;  (** total draw while executing (MCU + peripheral) *)
  body : context -> unit;  (** effects, applied transactionally on success *)
  monitored : (string * (unit -> float)) list;
      (** dpData variables exposed to monitors: name and current-value
          reader (the paper passes the variable address in the task
          context; we pass a getter) *)
}

val make :
  name:string ->
  duration:Time.t ->
  power:Energy.power ->
  ?monitored:(string * (unit -> float)) list ->
  ?body:(context -> unit) ->
  unit ->
  t
(** @raise Invalid_argument on an empty name or negative duration. *)

type path = { index : int; tasks : t list }

type app = { app_name : string; paths : path list }

val app : name:string -> path list -> app

val validate : app -> (unit, string) result
(** Checks: at least one path; paths indexed 1..n in order; every path
    non-empty; a task name always denotes the same task value (tasks may
    be shared between paths, like [send] in the benchmark). *)

val find_task : app -> string -> t option
val task_names : app -> string list
(** Unique names, in first-appearance order. *)

val find_path : app -> int -> path option

val path_count : app -> int

val bodies : app -> (string * (context -> unit)) list
(** Every distinct task body, named, in first-appearance order: the
    access-recording surface the static WAR-hazard analysis
    ({!Artemis_consistency.War}) runs over.  This is the execution
    surface of both the ARTEMIS runtime and the Mayfly baseline. *)

val distinct_bodies : t list -> (string * (context -> unit)) list
(** The named bodies of [tasks], distinct by name, in first-appearance
    order: the rule behind {!bodies} and {!task_names}, shared by the
    InK and checkpoint baselines' analysis surfaces. *)
