(** Bounded exhaustive exploration of monitor state machines.

    The paper's future work (Section 7, "Property Consistency Checking")
    envisages translating constraints to time-aware models and model
    checking them.  This module is a small prototype of that idea at the
    intermediate-language level: it enumerates every event sequence up to
    a bounded depth over a finite event alphabet (with non-decreasing
    timestamps, as the runtime guarantees) and checks that

    - the interpreter never raises {!Interp.Runtime_error} (no missing
      [data(_)] payloads, no division by zero on any reachable path), and
    - a user-supplied invariant over the machine's state and variables
      holds after every step.

    The monitor generator's unit tests use it to prove, exhaustively up
    to the bound, invariants such as "the maxTries counter never exceeds
    n" and "a collect counter never goes negative". *)

open Artemis_util

type snapshot = { state : string; vars : (string * Ast.value) list }
(** A pure machine configuration (control state + variable values). *)

val initial : Ast.machine -> snapshot

type violation = {
  trace : Interp.event list;  (** the offending sequence, in order *)
  message : string;  (** runtime error text or "invariant violated" *)
  at : snapshot;  (** configuration after (or during) the last step *)
}

val default_alphabet : ?extra_timestamps:Time.t list -> Ast.machine -> Interp.event list
(** A finite alphabet derived from the machine: start/end events of every
    mentioned task (plus one foreign task for anyEvent coverage), at the
    timestamps 0, every time literal in the machine's guards, and each
    literal plus one millisecond; path 0 and every path literal; one
    generic [data] payload per referenced variable. *)

val check :
  ?depth:int ->
  ?invariant:(snapshot -> bool) ->
  ?alphabet:Interp.event list ->
  Ast.machine ->
  (int, violation) result
(** Explore all sequences of length <= [depth] (default 4) with
    non-decreasing timestamps.  [Ok n] reports the number of steps
    explored.  The first violation aborts the search. *)

val reachable_states : ?depth:int -> ?alphabet:Interp.event list -> Ast.machine -> string list
(** Control states reachable within the bound (sorted, unique).
    @raise Failure if exploration hits a runtime error. *)
