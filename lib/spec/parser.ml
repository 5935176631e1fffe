open Artemis_util
open Scanner

let expect_energy s =
  let t = peek s in
  match t.token with
  | Scanner.Energy uj ->
      advance s;
      uj
  | other ->
      fail_at t "expected an energy amount (e.g. 3.4mJ, 500uJ) but found %a"
        Scanner.pp_token other

let expect_duration s =
  let t = peek s in
  match t.token with
  | Scanner.Duration d ->
      advance s;
      d
  | other ->
      fail_at t "expected a duration (e.g. 100ms, 5min) but found %a"
        Scanner.pp_token other

let expect_number s =
  let t = peek s in
  let negated =
    match t.token with
    | Scanner.Punct "-" ->
        advance s;
        true
    | _ -> false
  in
  let t = peek s in
  let magnitude =
    match t.token with
    | Scanner.Int n ->
        advance s;
        float_of_int n
    | Scanner.Float f ->
        advance s;
        f
    | other -> fail_at t "expected a number but found %a" Scanner.pp_token other
  in
  if negated then -.magnitude else magnitude

let expect_action s =
  let t = peek s in
  let name = expect_ident s in
  match Artemis_fsm.Ast.action_of_string name with
  | Some a -> a
  | None -> fail_at t "unknown action %S" name

(* Accumulated clause state for one property. *)
type clauses = {
  mutable dp_task : string option;
  mutable on_fail : Ast.action option;
  mutable max_attempt : int option;
  mutable max_attempt_action : Ast.action option;
  mutable path : int option;
  mutable range : (float * float) option;
  (* true when the last clause parsed was maxAttempt, so that a following
     onFail binds to it (Figure 5, line 6) *)
  mutable pending_max_attempt : bool;
}

let empty_clauses () =
  {
    dp_task = None;
    on_fail = None;
    max_attempt = None;
    max_attempt_action = None;
    path = None;
    range = None;
    pending_max_attempt = false;
  }

let parse_clause s c =
  let t = peek s in
  match t.token with
  | Scanner.Ident "dpTask" ->
      advance s;
      expect_punct s ":";
      if c.dp_task <> None then fail_at t "duplicate dpTask clause";
      c.dp_task <- Some (expect_ident s);
      c.pending_max_attempt <- false;
      true
  | Scanner.Ident "onFail" ->
      advance s;
      expect_punct s ":";
      let action = expect_action s in
      if c.pending_max_attempt then begin
        c.max_attempt_action <- Some action;
        c.pending_max_attempt <- false
      end
      else if c.on_fail = None then c.on_fail <- Some action
      else fail_at t "duplicate onFail clause";
      true
  | Scanner.Ident "maxAttempt" ->
      advance s;
      expect_punct s ":";
      if c.max_attempt <> None then fail_at t "duplicate maxAttempt clause";
      c.max_attempt <- Some (expect_int s);
      c.pending_max_attempt <- true;
      true
  | Scanner.Ident "Path" ->
      advance s;
      expect_punct s ":";
      if c.path <> None then fail_at t "duplicate Path clause";
      c.path <- Some (expect_int s);
      c.pending_max_attempt <- false;
      true
  | Scanner.Ident "Range" ->
      advance s;
      expect_punct s ":";
      expect_punct s "[";
      let low = expect_number s in
      expect_punct s ",";
      let high = expect_number s in
      expect_punct s "]";
      if c.range <> None then fail_at t "duplicate Range clause";
      c.range <- Some (low, high);
      c.pending_max_attempt <- false;
      true
  | _ -> false

let required loc what = function
  | Some v -> v
  | None -> fail_at loc "property is missing its %s clause" what

let unexpected loc what kind =
  fail_at loc "%s clause is not allowed on a %s property" what kind

let finish_max_attempt loc c =
  match (c.max_attempt, c.max_attempt_action) with
  | None, None -> None
  | Some attempts, Some exhausted ->
      if attempts <= 0 then fail_at loc "maxAttempt must be positive";
      Some { Ast.attempts; exhausted }
  | Some _, None -> fail_at loc "maxAttempt needs its own onFail action"
  | None, Some _ -> assert false

let parse_property s =
  let start = peek s in
  let kind = expect_ident s in
  expect_punct s ":";
  let build c =
    match kind with
    | "maxTries" ->
        let n = expect_int s in
        fun () ->
          if n <= 0 then fail_at start "maxTries must be positive";
          if c.dp_task <> None then unexpected start "dpTask" kind;
          if c.range <> None then unexpected start "Range" kind;
          if finish_max_attempt start c <> None then
            unexpected start "maxAttempt" kind;
          Ast.Max_tries
            { n; on_fail = required start "onFail" c.on_fail; path = c.path }
    | "maxDuration" ->
        let limit = expect_duration s in
        fun () ->
          if c.dp_task <> None then unexpected start "dpTask" kind;
          if c.range <> None then unexpected start "Range" kind;
          if finish_max_attempt start c <> None then
            unexpected start "maxAttempt" kind;
          Ast.Max_duration
            { limit; on_fail = required start "onFail" c.on_fail; path = c.path }
    | "MITD" ->
        let limit = expect_duration s in
        fun () ->
          if c.range <> None then unexpected start "Range" kind;
          Ast.Mitd
            {
              limit;
              dp_task = required start "dpTask" c.dp_task;
              on_fail = required start "onFail" c.on_fail;
              max_attempt = finish_max_attempt start c;
              path = c.path;
            }
    | "collect" ->
        let n = expect_int s in
        fun () ->
          if n <= 0 then fail_at start "collect count must be positive";
          if c.range <> None then unexpected start "Range" kind;
          if finish_max_attempt start c <> None then
            unexpected start "maxAttempt" kind;
          Ast.Collect
            {
              n;
              dp_task = required start "dpTask" c.dp_task;
              on_fail = required start "onFail" c.on_fail;
              path = c.path;
            }
    | "period" ->
        let interval = expect_duration s in
        fun () ->
          if c.dp_task <> None then unexpected start "dpTask" kind;
          if c.range <> None then unexpected start "Range" kind;
          Ast.Period
            {
              interval;
              on_fail = required start "onFail" c.on_fail;
              max_attempt = finish_max_attempt start c;
              path = c.path;
            }
    | "minEnergy" ->
        let uj = expect_energy s in
        fun () ->
          if uj <= 0. then fail_at start "minEnergy must be positive";
          if c.dp_task <> None then unexpected start "dpTask" kind;
          if c.range <> None then unexpected start "Range" kind;
          if finish_max_attempt start c <> None then
            unexpected start "maxAttempt" kind;
          Ast.Min_energy
            { uj; on_fail = required start "onFail" c.on_fail; path = c.path }
    | "dpData" ->
        let var = expect_ident s in
        fun () ->
          if c.dp_task <> None then unexpected start "dpTask" kind;
          if finish_max_attempt start c <> None then
            unexpected start "maxAttempt" kind;
          let low, high = required start "Range" c.range in
          if low > high then fail_at start "Range lower bound exceeds upper bound";
          Ast.Dp_data
            {
              var;
              low;
              high;
              on_fail = required start "onFail" c.on_fail;
              path = c.path;
            }
    | other -> fail_at start "unknown property kind %S" other
  in
  let c = empty_clauses () in
  let finish = build c in
  while parse_clause s c do
    ()
  done;
  expect_punct s ";";
  finish ()

let parse_block s =
  let task = expect_ident s in
  (let t = peek s in
   match t.token with
   | Scanner.Punct ":" -> advance s
   | _ -> ());
  expect_punct s "{";
  let rec properties acc =
    let t = peek s in
    match t.token with
    | Scanner.Punct "}" ->
        advance s;
        List.rev acc
    | _ -> properties (parse_property s :: acc)
  in
  { Ast.task; properties = properties [] }

let puncts = [ "{"; "}"; ":"; ";"; "["; "]"; ","; "-" ]

let parse_exn src =
  let convert f =
    try f () with
    | Parse_error (msg, line, col) ->
        failwith (Printf.sprintf "spec parse error at %d:%d: %s" line col msg)
    | Scanner.Lex_error (msg, line, col) ->
        failwith (Printf.sprintf "spec lex error at %d:%d: %s" line col msg)
  in
  convert (fun () ->
      let s = stream (Scanner.tokenize ~puncts src) in
      let rec blocks acc =
        let t = peek s in
        match t.token with
        | Scanner.Eof -> List.rev acc
        | _ -> blocks (parse_block s :: acc)
      in
      blocks [])

let parse src =
  match parse_exn src with
  | spec -> Ok spec
  | exception Failure msg -> Result.Error msg
