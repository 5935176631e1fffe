open Artemis_util

type ty = Tint | Tbool | Tfloat | Ttime

let ty_bytes = function Tint -> 4 | Tbool -> 1 | Tfloat -> 4 | Ttime -> 8
type value = Vint of int | Vbool of bool | Vfloat of float | Vtime of Time.t

type action =
  | Restart_path
  | Skip_path
  | Restart_task
  | Skip_task
  | Complete_path

type var_decl = { var_name : string; ty : ty; init : value; persistent : bool }
type trigger = On_start of string | On_end of string | On_any
type unop = Neg | Not

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type expr =
  | Lit of value
  | Var of string
  | Timestamp
  | Event_path
  | Dep_data of string
  | Energy_level
  | Unop of unop * expr
  | Binop of binop * expr * expr

type stmt =
  | Assign of string * expr
  | If of expr * stmt list * stmt list
  | Fail of action * int option

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

let ty_of_value = function
  | Vint _ -> Tint
  | Vbool _ -> Tbool
  | Vfloat _ -> Tfloat
  | Vtime _ -> Ttime

let ty_to_string = function
  | Tint -> "int"
  | Tbool -> "bool"
  | Tfloat -> "float"
  | Ttime -> "time"

let action_to_string = function
  | Restart_path -> "restartPath"
  | Skip_path -> "skipPath"
  | Restart_task -> "restartTask"
  | Skip_task -> "skipTask"
  | Complete_path -> "completePath"

let action_of_string = function
  | "restartPath" -> Some Restart_path
  | "skipPath" -> Some Skip_path
  | "restartTask" -> Some Restart_task
  | "skipTask" -> Some Skip_task
  | "completePath" -> Some Complete_path
  | _ -> None

let equal_value a b =
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vfloat x, Vfloat y -> x = y
  | Vtime x, Vtime y -> Time.equal x y
  | (Vint _ | Vbool _ | Vfloat _ | Vtime _), _ -> false

(* Float.compare is a total order with NaN equal to itself (and -0. equal
   to +0.), which is what store-vs-store comparison needs: two engines
   that both overflowed to NaN agree, even though the language's [==]
   says NaN <> NaN. *)
let same_value a b =
  match (a, b) with
  | Vfloat x, Vfloat y -> Float.compare x y = 0
  | _ -> equal_value a b

(* Structural equality is fine for everything except Vtime (abstract),
   which equal_value handles; machines are compared component-wise. *)
let equal_var_decl a b =
  String.equal a.var_name b.var_name
  && a.ty = b.ty && equal_value a.init b.init
  && a.persistent = b.persistent

let rec equal_expr a b =
  match (a, b) with
  | Lit x, Lit y -> equal_value x y
  | Var x, Var y -> String.equal x y
  | Timestamp, Timestamp | Event_path, Event_path | Energy_level, Energy_level ->
      true
  | Dep_data x, Dep_data y -> String.equal x y
  | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && equal_expr e1 e2
  | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
      o1 = o2 && equal_expr a1 a2 && equal_expr b1 b2
  | ( ( Lit _ | Var _ | Timestamp | Event_path | Dep_data _ | Energy_level
      | Unop _ | Binop _ ),
      _ ) ->
      false

let rec equal_stmt a b =
  match (a, b) with
  | Assign (x, e), Assign (y, f) -> String.equal x y && equal_expr e f
  | If (c1, t1, e1), If (c2, t2, e2) ->
      equal_expr c1 c2 && equal_stmts t1 t2 && equal_stmts e1 e2
  | Fail (a1, p1), Fail (a2, p2) -> a1 = a2 && p1 = p2
  | (Assign _ | If _ | Fail _), _ -> false

and equal_stmts a b =
  List.length a = List.length b && List.for_all2 equal_stmt a b

let equal_transition a b =
  a.trigger = b.trigger
  && (match (a.guard, b.guard) with
     | None, None -> true
     | Some x, Some y -> equal_expr x y
     | None, Some _ | Some _, None -> false)
  && equal_stmts a.body b.body
  && String.equal a.target b.target

let equal_state a b =
  String.equal a.state_name b.state_name
  && List.length a.transitions = List.length b.transitions
  && List.for_all2 equal_transition a.transitions b.transitions

let equal_machine a b =
  String.equal a.machine_name b.machine_name
  && List.length a.vars = List.length b.vars
  && List.for_all2 equal_var_decl a.vars b.vars
  && String.equal a.initial b.initial
  && List.length a.states = List.length b.states
  && List.for_all2 equal_state a.states b.states

let find_state m name =
  List.find_opt (fun s -> String.equal s.state_name name) m.states

let find_var m name =
  List.find_opt (fun v -> String.equal v.var_name name) m.vars

let pp_value ppf = function
  | Vint n -> Format.fprintf ppf "%d" n
  | Vbool b -> Format.fprintf ppf "%b" b
  | Vfloat f -> Format.fprintf ppf "%g" f
  | Vtime t -> Time.pp ppf t
