open Artemis_util
open Scanner
open Ast

let accept_punct s p =
  let t = peek s in
  match t.token with
  | Scanner.Punct q when String.equal p q ->
      advance s;
      true
  | _ -> false

let expect_keyword s kw =
  let t = peek s in
  match t.token with
  | Scanner.Ident name when String.equal name kw -> advance s
  | other -> fail_at t "expected %S but found %a" kw Scanner.pp_token other

let accept_keyword s kw =
  let t = peek s in
  match t.token with
  | Scanner.Ident name when String.equal name kw ->
      advance s;
      true
  | _ -> false

(* --- expressions (precedence climbing) --- *)

let literal_of_token s =
  let t = peek s in
  match t.token with
  | Scanner.Int n ->
      advance s;
      Some (Vint n)
  | Scanner.Float f ->
      advance s;
      Some (Vfloat f)
  | Scanner.Duration d ->
      advance s;
      Some (Vtime d)
  | Scanner.Ident "true" ->
      advance s;
      Some (Vbool true)
  | Scanner.Ident "false" ->
      advance s;
      Some (Vbool false)
  | _ -> None

let negate_value loc = function
  | Vint n -> Vint (-n)
  | Vfloat f -> Vfloat (-.f)
  | Vtime t -> Vtime (Time.sub Time.zero t)
  | Vbool _ -> fail_at loc "cannot negate a bool literal"

let rec parse_or s =
  let left = parse_and s in
  if accept_punct s "||" then Binop (Or, left, parse_or s) else left

and parse_and s =
  let left = parse_cmp s in
  if accept_punct s "&&" then Binop (And, left, parse_and s) else left

and parse_cmp s =
  let left = parse_add s in
  let op =
    if accept_punct s "==" then Some Eq
    else if accept_punct s "!=" then Some Ne
    else if accept_punct s "<=" then Some Le
    else if accept_punct s ">=" then Some Ge
    else if accept_punct s "<" then Some Lt
    else if accept_punct s ">" then Some Gt
    else None
  in
  match op with None -> left | Some op -> Binop (op, left, parse_add s)

and parse_add s =
  let rec loop left =
    if accept_punct s "+" then loop (Binop (Add, left, parse_mul s))
    else if accept_punct s "-" then loop (Binop (Sub, left, parse_mul s))
    else left
  in
  loop (parse_mul s)

and parse_mul s =
  let rec loop left =
    if accept_punct s "*" then loop (Binop (Mul, left, parse_unary s))
    else if accept_punct s "/" then loop (Binop (Div, left, parse_unary s))
    else if accept_punct s "%" then loop (Binop (Mod, left, parse_unary s))
    else left
  in
  loop (parse_unary s)

and parse_unary s =
  let loc = peek s in
  if accept_punct s "-" then
    (* fold minus into a directly following literal so that printed
       negative literals round-trip *)
    match literal_of_token s with
    | Some v -> Lit (negate_value loc v)
    | None -> Unop (Neg, parse_unary s)
  else if accept_punct s "!" then Unop (Not, parse_unary s)
  else parse_primary s

and parse_primary s =
  let t = peek s in
  match literal_of_token s with
  | Some v -> Lit v
  | None -> (
      match t.token with
      | Scanner.Punct "(" ->
          advance s;
          let e = parse_or s in
          expect_punct s ")";
          e
      | Scanner.Ident "t" ->
          advance s;
          Timestamp
      | Scanner.Ident "path" ->
          advance s;
          Event_path
      | Scanner.Ident "energyLevel" ->
          advance s;
          Energy_level
      | Scanner.Ident "data" ->
          advance s;
          expect_punct s "(";
          let x = expect_ident s in
          expect_punct s ")";
          Dep_data x
      | Scanner.Ident x ->
          advance s;
          Var x
      | other -> fail_at t "expected an expression but found %a" Scanner.pp_token other)

(* --- statements --- *)

let expect_action s =
  let t = peek s in
  let name = expect_ident s in
  match action_of_string name with
  | Some a -> a
  | None -> fail_at t "unknown action %S" name

let rec parse_stmt s =
  let t = peek s in
  match t.token with
  | Scanner.Ident "if" ->
      advance s;
      expect_punct s "(";
      let cond = parse_or s in
      expect_punct s ")";
      expect_punct s "{";
      let then_ = parse_stmts s in
      expect_punct s "}";
      let else_ =
        if accept_keyword s "else" then begin
          expect_punct s "{";
          let e = parse_stmts s in
          expect_punct s "}";
          e
        end
        else []
      in
      If (cond, then_, else_)
  | Scanner.Ident "fail" ->
      advance s;
      let action = expect_action s in
      let path =
        if accept_keyword s "Path" then Some (expect_int s) else None
      in
      expect_punct s ";";
      Fail (action, path)
  | Scanner.Ident _ ->
      let x = expect_ident s in
      expect_punct s ":=";
      let e = parse_or s in
      expect_punct s ";";
      Assign (x, e)
  | other -> fail_at t "expected a statement but found %a" Scanner.pp_token other

and parse_stmts s =
  let rec loop acc =
    match (peek s).token with
    | Scanner.Punct "}" -> List.rev acc
    | _ -> loop (parse_stmt s :: acc)
  in
  loop []

(* --- machine structure --- *)

let parse_trigger s =
  let t = peek s in
  match t.token with
  | Scanner.Ident "startTask" ->
      advance s;
      expect_punct s "(";
      let task = expect_ident s in
      expect_punct s ")";
      On_start task
  | Scanner.Ident "endTask" ->
      advance s;
      expect_punct s "(";
      let task = expect_ident s in
      expect_punct s ")";
      On_end task
  | Scanner.Ident "anyEvent" ->
      advance s;
      On_any
  | other -> fail_at t "expected a trigger but found %a" Scanner.pp_token other

let parse_transition s ~state_name =
  expect_keyword s "on";
  let trigger = parse_trigger s in
  let guard =
    if accept_keyword s "when" then begin
      expect_punct s "(";
      let g = parse_or s in
      expect_punct s ")";
      Some g
    end
    else None
  in
  let body =
    if accept_punct s "{" then begin
      let b = parse_stmts s in
      expect_punct s "}";
      b
    end
    else []
  in
  let target = if accept_punct s "->" then expect_ident s else state_name in
  expect_punct s ";";
  { trigger; guard; body; target }

let parse_ty s =
  let t = peek s in
  match expect_ident s with
  | "int" -> Tint
  | "bool" -> Tbool
  | "float" -> Tfloat
  | "time" -> Ttime
  | other -> fail_at t "unknown type %S" other

let parse_var_decl s ~persistent =
  expect_keyword s "var";
  let var_name = expect_ident s in
  expect_punct s ":";
  let ty = parse_ty s in
  expect_punct s "=";
  let loc = peek s in
  let init =
    if accept_punct s "-" then
      match literal_of_token s with
      | Some v -> negate_value loc v
      | None -> fail_at loc "expected a literal initializer"
    else
      match literal_of_token s with
      | Some v -> v
      | None -> fail_at loc "expected a literal initializer"
  in
  expect_punct s ";";
  { var_name; ty; init; persistent }

let parse_state s ~initial =
  expect_keyword s "state";
  let state_name = expect_ident s in
  expect_punct s "{";
  let rec transitions acc =
    match (peek s).token with
    | Scanner.Punct "}" ->
        advance s;
        List.rev acc
    | _ -> transitions (parse_transition s ~state_name :: acc)
  in
  (initial, { state_name; transitions = transitions [] })

let parse_machine s =
  let start = peek s in
  expect_keyword s "machine";
  let machine_name = expect_ident s in
  expect_punct s "{";
  let vars = ref [] and states = ref [] and initial = ref None in
  let rec loop () =
    let t = peek s in
    match t.token with
    | Scanner.Punct "}" -> advance s
    | Scanner.Ident "persistent" ->
        advance s;
        vars := parse_var_decl s ~persistent:true :: !vars;
        loop ()
    | Scanner.Ident "var" ->
        vars := parse_var_decl s ~persistent:false :: !vars;
        loop ()
    | Scanner.Ident "initial" ->
        advance s;
        let _, st = parse_state s ~initial:true in
        (match !initial with
        | Some _ -> fail_at t "a machine may have only one initial state"
        | None -> initial := Some st.state_name);
        states := st :: !states;
        loop ()
    | Scanner.Ident "state" ->
        let _, st = parse_state s ~initial:false in
        states := st :: !states;
        loop ()
    | other ->
        fail_at t "expected a declaration or '}' but found %a" Scanner.pp_token
          other
  in
  loop ();
  let initial =
    match !initial with
    | Some i -> i
    | None -> fail_at start "machine %S has no initial state" machine_name
  in
  { machine_name; vars = List.rev !vars; initial; states = List.rev !states }

let puncts =
  [
    "{"; "}"; "("; ")"; ";"; ","; ":="; "->"; "=="; "!="; "<="; ">="; "<"; ">";
    "+"; "-"; "*"; "/"; "%"; "&&"; "||"; "!"; ":"; "=";
  ]

let wrap f =
  try f () with
  | Parse_error (msg, line, col) ->
      failwith (Printf.sprintf "fsm parse error at %d:%d: %s" line col msg)
  | Scanner.Lex_error (msg, line, col) ->
      failwith (Printf.sprintf "fsm lex error at %d:%d: %s" line col msg)

let parse_exn src =
  wrap (fun () ->
      let s = stream (Scanner.tokenize ~puncts src) in
      let rec machines acc =
        match (peek s).token with
        | Scanner.Eof -> List.rev acc
        | _ -> machines (parse_machine s :: acc)
      in
      machines [])

let parse src =
  match parse_exn src with
  | machines -> Ok machines
  | exception Failure msg -> Result.Error msg

let parse_machine_exn src =
  match parse_exn src with
  | [ m ] -> m
  | ms -> failwith (Printf.sprintf "expected exactly one machine, got %d" (List.length ms))

let parse_expr_exn src =
  wrap (fun () ->
      let s = stream (Scanner.tokenize ~puncts src) in
      let e = parse_or s in
      match (peek s).token with
      | Scanner.Eof -> e
      | other ->
          let t = peek s in
          fail_at t "trailing input after expression: %a" Scanner.pp_token other)
