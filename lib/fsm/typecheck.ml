open Ast

(* Expression typing raises on the first error (left operand first), so
   well-typed expressions - the common case at deploy time - allocate no
   [result] values or continuation closures. *)
exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let same what ta tb =
  if ta = tb then ta
  else
    type_error "%s expects equal operand types, got %s and %s" what
      (ty_to_string ta) (ty_to_string tb)

(* [var_ty] raises [Type_error] for an undeclared variable *)
let rec ty_of ~var_ty e =
  match e with
  | Lit v -> ty_of_value v
  | Var x -> var_ty x
  | Timestamp -> Ttime
  | Event_path -> Tint
  | Dep_data _ -> Tfloat
  | Energy_level -> Tfloat
  | Unop (Neg, e) -> (
      match ty_of ~var_ty e with
      | (Tint | Tfloat | Ttime) as ty -> ty
      | Tbool -> type_error "cannot negate a bool")
  | Unop (Not, e) -> (
      match ty_of ~var_ty e with
      | Tbool -> Tbool
      | Tint | Tfloat | Ttime -> type_error "! expects a bool")
  | Binop (op, a, b) -> (
      let ta = ty_of ~var_ty a in
      let tb = ty_of ~var_ty b in
      match op with
      | Add | Sub -> (
          match same "arithmetic" ta tb with
          | (Tint | Tfloat | Ttime) as ty -> ty
          | Tbool -> type_error "arithmetic on bool")
      | Mul | Div -> (
          match same "arithmetic" ta tb with
          | (Tint | Tfloat) as ty -> ty
          | Ttime -> type_error "* and / are not defined on time"
          | Tbool -> type_error "arithmetic on bool")
      | Mod -> (
          match same "%" ta tb with
          | Tint -> Tint
          | Tbool | Tfloat | Ttime -> type_error "%% expects ints")
      | Eq | Ne | Lt | Le | Gt | Ge ->
          ignore (same "comparison" ta tb : ty);
          Tbool
      | And | Or ->
          if ta = Tbool && tb = Tbool then Tbool
          else type_error "&& and || expect bools")

let undeclared x = type_error "undeclared variable %S" x

let typed ~var_ty e =
  match ty_of ~var_ty e with
  | ty -> Ok ty
  | exception Type_error msg -> Error msg

let check m =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* unique names *)
  let check_unique what names =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun n ->
        if Hashtbl.mem tbl n then err "duplicate %s %S" what n
        else Hashtbl.add tbl n ())
      names
  in
  check_unique "state" (List.map (fun s -> s.state_name) m.states);
  check_unique "variable" (List.map (fun v -> v.var_name) m.vars);
  if find_state m m.initial = None then
    err "initial state %S does not exist" m.initial;
  List.iter
    (fun v ->
      if ty_of_value v.init <> v.ty then
        err "variable %S: initializer type %s does not match declared %s"
          v.var_name
          (ty_to_string (ty_of_value v.init))
          (ty_to_string v.ty))
    m.vars;
  let expr_type =
    typed ~var_ty:(fun x ->
        match find_var m x with Some v -> v.ty | None -> undeclared x)
  in
  (* a transition's errors are prefixed with its state; the prefix is only
     formatted when there is an error to report *)
  let at state fmt = err ("state %S, transition: " ^^ fmt) state in
  let rec check_stmt state = function
    | Assign (x, e) -> (
        match (find_var m x, expr_type e) with
        | None, _ -> at state "assignment to undeclared variable %S" x
        | Some _, Error msg -> at state "%s" msg
        | Some v, Ok te ->
            if v.ty <> te then
              at state "assigning %s to variable %S of type %s"
                (ty_to_string te) x (ty_to_string v.ty))
    | If (cond, then_, else_) ->
        (match expr_type cond with
        | Error msg -> at state "%s" msg
        | Ok Tbool -> ()
        | Ok other ->
            at state "if condition has type %s, expected bool"
              (ty_to_string other));
        List.iter (check_stmt state) then_;
        List.iter (check_stmt state) else_
    | Fail (_, Some p) when p <= 0 -> at state "fail Path must be positive"
    | Fail (_, _) -> ()
  in
  List.iter
    (fun s ->
      let state = s.state_name in
      List.iter
        (fun tr ->
          (match tr.guard with
          | None -> ()
          | Some g -> (
              match expr_type g with
              | Error msg -> at state "%s" msg
              | Ok Tbool -> ()
              | Ok other ->
                  at state "guard has type %s, expected bool"
                    (ty_to_string other)));
          List.iter (check_stmt state) tr.body;
          if find_state m tr.target = None then
            at state "target state %S does not exist" tr.target)
        s.transitions)
    m.states;
  match List.rev !errors with [] -> Ok () | errs -> Error errs

let check_exn m =
  match check m with
  | Ok () -> ()
  | Error errs ->
      failwith
        (Printf.sprintf "machine %S: %s" m.machine_name
           (String.concat "\n" errs))
