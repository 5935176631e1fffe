open Artemis_util

let duration = Time.to_literal
let action = Artemis_fsm.Ast.action_to_string

let float_lit f =
  (* Keep integral floats parseable as plain numbers (36, not 36.);
     non-integral ones use fixed-point with trailing zeros trimmed, since
     %g would round large values to 6 significant digits *)
  if Float.is_integer f then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12f" f in
    let len = String.length s in
    let rec last i =
      if i > 0 && s.[i] = '0' && s.[i - 1] <> '.' then last (i - 1) else i
    in
    String.sub s 0 (last (len - 1) + 1)

let clause_path = function
  | None -> ""
  | Some p -> Printf.sprintf " Path: %d" p

let clause_max_attempt = function
  | None -> ""
  | Some { Ast.attempts; exhausted } ->
      Printf.sprintf " maxAttempt: %d onFail: %s" attempts
        (action exhausted)

let property_to_string = function
  | Ast.Max_tries { n; on_fail; path } ->
      Printf.sprintf "maxTries: %d onFail: %s%s;" n
        (action on_fail) (clause_path path)
  | Ast.Max_duration { limit; on_fail; path } ->
      Printf.sprintf "maxDuration: %s onFail: %s%s;" (duration limit)
        (action on_fail) (clause_path path)
  | Ast.Mitd { limit; dp_task; on_fail; max_attempt; path } ->
      Printf.sprintf "MITD: %s dpTask: %s onFail: %s%s%s;" (duration limit)
        dp_task
        (action on_fail)
        (clause_max_attempt max_attempt)
        (clause_path path)
  | Ast.Collect { n; dp_task; on_fail; path } ->
      Printf.sprintf "collect: %d dpTask: %s onFail: %s%s;" n dp_task
        (action on_fail) (clause_path path)
  | Ast.Period { interval; on_fail; max_attempt; path } ->
      Printf.sprintf "period: %s onFail: %s%s%s;" (duration interval)
        (action on_fail)
        (clause_max_attempt max_attempt)
        (clause_path path)
  | Ast.Dp_data { var; low; high; on_fail; path } ->
      Printf.sprintf "dpData: %s Range: [%s, %s] onFail: %s%s;" var
        (float_lit low) (float_lit high)
        (action on_fail)
        (clause_path path)
  | Ast.Min_energy { uj; on_fail; path } ->
      Printf.sprintf "minEnergy: %suJ onFail: %s%s;" (float_lit uj)
        (action on_fail) (clause_path path)

let block_to_string { Ast.task; properties } =
  let props =
    properties |> List.map (fun p -> "  " ^ property_to_string p)
    |> String.concat "\n"
  in
  Printf.sprintf "%s: {\n%s\n}" task props

let to_string spec = String.concat "\n\n" (List.map block_to_string spec) ^ "\n"
