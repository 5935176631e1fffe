(** Abstract syntax of the ARTEMIS intermediate language (Section 3.3).

    A monitor is a single state machine.  Transitions are triggered by the
    runtime's task events ([startTask]/[endTask] with a timestamp, or
    [anyEvent]), may carry boolean guards, and their bodies contain
    assignments, conditionals and [fail] statements that signal a property
    violation together with the corrective action the runtime should
    take.  Events without a matching transition are accepted silently
    (implicit self-transition), exactly as the paper specifies. *)

open Artemis_util

type ty = Tint | Tbool | Tfloat | Ttime

val ty_bytes : ty -> int
(** FRAM bytes of one variable of the type, as the generated C lays it
    out and the deployed monitor's cells declare it: int 4, bool 1,
    float 4, time 8. *)

type value = Vint of int | Vbool of bool | Vfloat of float | Vtime of Time.t

type action =
  | Restart_path
  | Skip_path
  | Restart_task
  | Skip_task
  | Complete_path

type var_decl = {
  var_name : string;
  ty : ty;
  init : value;
  persistent : bool;
      (** survives monitor re-initialisation on path restart (attempt and
          collect counters; see DESIGN.md decision 2) *)
}

type trigger =
  | On_start of string  (** startTask(task) *)
  | On_end of string  (** endTask(task) *)
  | On_any  (** anyEvent: both kinds, any task *)

type unop = Neg | Not

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type expr =
  | Lit of value
  | Var of string
  | Timestamp  (** the event's timestamp, written [t] *)
  | Event_path  (** the path the runtime is currently executing, [path] *)
  | Dep_data of string  (** [data(x)]: a monitored task variable (float) *)
  | Energy_level
      (** [energyLevel]: capacitor level in mJ - the Section 4.2.2
          energy-awareness extension primitive *)
  | Unop of unop * expr
  | Binop of binop * expr * expr

type stmt =
  | Assign of string * expr
  | If of expr * stmt list * stmt list
  | Fail of action * int option
      (** signal a violation; the optional int is an explicit target path *)

type transition = {
  trigger : trigger;
  guard : expr option;
  body : stmt list;
  target : string;
}

type state = { state_name : string; transitions : transition list }

type machine = {
  machine_name : string;
  vars : var_decl list;
  initial : string;
  states : state list;
}

val ty_of_value : value -> ty
val ty_to_string : ty -> string
val action_to_string : action -> string
val action_of_string : string -> action option

val equal_value : value -> value -> bool
(** Language equality, as the FSM [==] operator sees it: floats compare
    by IEEE semantics, so [NaN <> NaN] (matching the emitted C). *)

val same_value : value -> value -> bool
(** Observational equality for differential comparison of stores: like
    {!equal_value} but total on floats ([NaN] equals itself), so two
    engines that both computed [NaN] count as agreeing. *)

val equal_machine : machine -> machine -> bool

val find_state : machine -> string -> state option
val find_var : machine -> string -> var_decl option

val pp_value : Format.formatter -> value -> unit
(** Runtime-error messages and violation details print values through
    this; {!Printer} emits parseable concrete syntax. *)
