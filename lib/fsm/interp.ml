open Artemis_util
open Ast

type event_kind = Start | End

type event = {
  kind : event_kind;
  task : string;
  timestamp : Time.t;
  path : int;
  dep_data : (string * float) list;
  energy_mj : float;
}

type store = {
  get : string -> value;
  set : string -> value -> unit;
  get_state : unit -> string;
  set_state : string -> unit;
}

type failure = {
  failed_machine : string;
  action : action;
  target_path : int option;
}

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

let memory_store (m : machine) =
  let vars = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace vars v.var_name v.init) m.vars;
  let state = ref m.initial in
  {
    get =
      (fun x ->
        match Hashtbl.find_opt vars x with
        | Some v -> v
        | None -> error "unknown variable %S" x);
    set = (fun x v -> Hashtbl.replace vars x v);
    get_state = (fun () -> !state);
    set_state = (fun s -> state := s);
  }

let as_bool = function
  | Vbool b -> b
  | v -> error "expected a bool, got %a" pp_value v

let rec eval m store event e =
  match e with
  | Lit v -> v
  | Var x -> store.get x
  | Timestamp -> Vtime event.timestamp
  | Event_path -> Vint event.path
  | Dep_data x -> (
      match List.assoc_opt x event.dep_data with
      | Some f -> Vfloat f
      | None -> error "event carries no data for %S" x)
  | Energy_level -> Vfloat event.energy_mj
  | Unop (Neg, e) -> (
      match eval m store event e with
      | Vint n -> Vint (-n)
      | Vfloat f -> Vfloat (-.f)
      | Vtime t -> Vtime (Time.sub Time.zero t)
      | Vbool _ -> error "cannot negate a bool")
  | Unop (Not, e) -> Vbool (not (as_bool (eval m store event e)))
  | Binop (And, a, b) ->
      (* short-circuit, like the generated C *)
      if as_bool (eval m store event a) then eval m store event b else Vbool false
  | Binop (Or, a, b) ->
      if as_bool (eval m store event a) then Vbool true else eval m store event b
  | Binop (op, a, b) ->
      (* operands evaluate left-to-right: when both raise (e.g. two
         divisions by zero), the left error wins in every engine *)
      let va = eval m store event a in
      let vb = eval m store event b in
      eval_binop op va vb

and eval_binop op va vb =
  let cmp c = Vbool c in
  match (op, va, vb) with
  | Add, Vint a, Vint b -> Vint (a + b)
  | Add, Vfloat a, Vfloat b -> Vfloat (a +. b)
  | Add, Vtime a, Vtime b -> Vtime (Time.add a b)
  | Sub, Vint a, Vint b -> Vint (a - b)
  | Sub, Vfloat a, Vfloat b -> Vfloat (a -. b)
  | Sub, Vtime a, Vtime b -> Vtime (Time.sub a b)
  | Mul, Vint a, Vint b -> Vint (a * b)
  | Mul, Vfloat a, Vfloat b -> Vfloat (a *. b)
  | Div, Vint _, Vint 0 -> error "integer division by zero"
  | Div, Vint a, Vint b -> Vint (a / b)
  | Div, Vfloat a, Vfloat b -> Vfloat (a /. b)
  | Mod, Vint _, Vint 0 -> error "modulo by zero"
  | Mod, Vint a, Vint b -> Vint (a mod b)
  | Eq, a, b -> cmp (equal_value a b)
  | Ne, a, b -> cmp (not (equal_value a b))
  | Lt, Vint a, Vint b -> cmp (a < b)
  | Lt, Vfloat a, Vfloat b -> cmp (a < b)
  | Lt, Vtime a, Vtime b -> cmp Time.(a < b)
  | Le, Vint a, Vint b -> cmp (a <= b)
  | Le, Vfloat a, Vfloat b -> cmp (a <= b)
  | Le, Vtime a, Vtime b -> cmp Time.(a <= b)
  | Gt, Vint a, Vint b -> cmp (a > b)
  | Gt, Vfloat a, Vfloat b -> cmp (a > b)
  | Gt, Vtime a, Vtime b -> cmp Time.(a > b)
  | Ge, Vint a, Vint b -> cmp (a >= b)
  | Ge, Vfloat a, Vfloat b -> cmp (a >= b)
  | Ge, Vtime a, Vtime b -> cmp Time.(a >= b)
  | (Add | Sub | Mul | Div | Mod | Lt | Le | Gt | Ge | And | Or), a, b ->
      error "ill-typed operands %a and %a" pp_value a pp_value b

let trigger_matches trigger (event : event) =
  match (trigger, event.kind) with
  | On_any, (Start | End) -> true
  | On_start task, Start -> String.equal task event.task
  | On_end task, End -> String.equal task event.task
  | On_start _, End | On_end _, Start -> false

let step m store event =
  let failures = ref [] in
  let rec run_stmt = function
    | Assign (x, e) -> store.set x (eval m store event e)
    | If (cond, then_, else_) ->
        if as_bool (eval m store event cond) then List.iter run_stmt then_
        else List.iter run_stmt else_
    | Fail (action, target_path) ->
        failures :=
          { failed_machine = m.machine_name; action; target_path } :: !failures
  in
  let current = store.get_state () in
  let state =
    match find_state m current with
    | Some s -> s
    | None -> error "machine %S: unknown current state %S" m.machine_name current
  in
  let fires tr =
    trigger_matches tr.trigger event
    &&
    match tr.guard with
    | None -> true
    | Some g -> as_bool (eval m store event g)
  in
  (match List.find_opt fires state.transitions with
  | None -> ()  (* implicit self-transition *)
  | Some tr ->
      List.iter run_stmt tr.body;
      store.set_state tr.target);
  List.rev !failures

(* An [On_any] trigger fires on every task's events, so such a machine
   watches every task: path restarts must re-initialize it no matter which
   tasks the path contains. *)
let mentions_task m task =
  List.exists
    (fun s ->
      List.exists
        (fun tr ->
          match tr.trigger with
          | On_start t | On_end t -> String.equal t task
          | On_any -> true)
        s.transitions)
    m.states
