(** Execution semantics of intermediate-language machines.

    One {!step} consumes one runtime event: the transitions of the current
    state are tried in declaration order; the first one whose trigger and
    guard match fires - its body runs, its [fail] statements are collected,
    and the machine moves to the target state.  If no transition matches,
    the event is accepted silently (implicit self-transition).

    The variable/state store is abstract so the same interpreter runs over
    plain hash tables (tests) and over NVM-backed persistent cells (the
    deployed monitors). *)

open Artemis_util

type event_kind = Start | End

type event = {
  kind : event_kind;
  task : string;
  timestamp : Time.t;
  path : int;  (** index of the path the runtime is executing *)
  dep_data : (string * float) list;  (** monitored variables, at End *)
  energy_mj : float;  (** capacitor level (Section 4.2.2 extension) *)
}

type store = {
  get : string -> Ast.value;
  set : string -> Ast.value -> unit;
  get_state : unit -> string;
  set_state : string -> unit;
}

type failure = {
  failed_machine : string;
  action : Ast.action;
  target_path : int option;  (** explicit [Path] of the fail statement *)
}

exception Runtime_error of string
(** Raised on dynamic errors the typechecker cannot rule out: unknown
    [data(x)] payload, division by zero. *)

val memory_store : Ast.machine -> store
(** Fresh in-memory store initialized from the declarations (tests,
    quick evaluation). *)

val step : Ast.machine -> store -> event -> failure list
(** Process one event.  @raise Runtime_error as documented above. *)

val mentions_task : Ast.machine -> string -> bool
(** Does any trigger of the machine apply to this task?  [On_any]
    triggers match every task, so a machine using one watches all tasks.
    Used to bind monitors to paths for re-initialisation. *)
