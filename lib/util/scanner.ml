type token =
  | Ident of string
  | Int of int
  | Float of float
  | Duration of Time.t
  | Energy of float
  | Punct of string
  | Eof

type located = { token : token; line : int; col : int }

exception Lex_error of string * int * int

let pp_token ppf = function
  | Ident s -> Format.fprintf ppf "identifier %S" s
  | Int n -> Format.fprintf ppf "integer %d" n
  | Float f -> Format.fprintf ppf "float %g" f
  | Duration d -> Format.fprintf ppf "duration %a" Time.pp d
  | Energy uj -> Format.fprintf ppf "energy %guJ" uj
  | Punct p -> Format.fprintf ppf "%S" p
  | Eof -> Format.fprintf ppf "end of input"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* A trailing identifier after a number selects the literal kind: time
   units produce [Duration], energy units [Energy]. *)
let unit_literal ~line ~col value unit_name =
  let duration us = Duration (Time.of_us (int_of_float (Float.round us))) in
  match unit_name with
  | "us" -> duration value
  | "ms" -> duration (value *. 1e3)
  | "s" | "sec" -> duration (value *. 1e6)
  | "min" -> duration (value *. 60e6)
  | "h" | "hour" -> duration (value *. 3600e6)
  | "uJ" -> Energy value
  | "mJ" -> Energy (value *. 1e3)
  | "J" -> Energy (value *. 1e6)
  | other ->
      raise (Lex_error (Printf.sprintf "unknown unit %S" other, line, col))

let tokenize ~puncts src =
  (* Longest punctuation first so "->" is not read as "-" then ">". *)
  let puncts =
    List.sort (fun a b -> compare (String.length b) (String.length a)) puncts
  in
  let n = String.length src in
  let line = ref 1 and col = ref 1 in
  let pos = ref 0 in
  let out = ref [] in
  let emit token line col = out := { token; line; col } :: !out in
  let advance k =
    for i = !pos to Stdlib.min (n - 1) (!pos + k - 1) do
      if src.[i] = '\n' then begin
        incr line;
        col := 1
      end
      else incr col
    done;
    pos := !pos + k
  in
  let match_punct () =
    let rec try_list = function
      | [] -> None
      | p :: rest ->
          let len = String.length p in
          if !pos + len <= n && String.equal (String.sub src !pos len) p then
            Some p
          else try_list rest
    in
    try_list puncts
  in
  while !pos < n do
    let c = src.[!pos] in
    let tok_line = !line and tok_col = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance 1
    else if c = '/' && !pos + 1 < n && src.[!pos + 1] = '/' then begin
      while !pos < n && src.[!pos] <> '\n' do
        advance 1
      done
    end
    else if is_digit c then begin
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        advance 1
      done;
      let is_float =
        !pos + 1 < n && src.[!pos] = '.' && is_digit src.[!pos + 1]
      in
      if is_float then begin
        advance 1;
        while !pos < n && is_digit src.[!pos] do
          advance 1
        done
      end;
      let num_text = String.sub src start (!pos - start) in
      (* A trailing identifier makes it a duration literal: 100ms, 5min. *)
      if !pos < n && is_ident_start src.[!pos] then begin
        let ustart = !pos in
        while !pos < n && is_ident_char src.[!pos] do
          advance 1
        done;
        let unit_name = String.sub src ustart (!pos - ustart) in
        let value = float_of_string num_text in
        emit (unit_literal ~line:tok_line ~col:tok_col value unit_name)
          tok_line tok_col
      end
      else if is_float then emit (Float (float_of_string num_text)) tok_line tok_col
      else emit (Int (int_of_string num_text)) tok_line tok_col
    end
    else if is_ident_start c then begin
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        advance 1
      done;
      emit (Ident (String.sub src start (!pos - start))) tok_line tok_col
    end
    else
      match match_punct () with
      | Some p ->
          advance (String.length p);
          emit (Punct p) tok_line tok_col
      | None ->
          raise
            (Lex_error
               (Printf.sprintf "unexpected character %C" c, tok_line, tok_col))
  done;
  emit Eof !line !col;
  List.rev !out

(* --- the parsers' token cursor --- *)

exception Parse_error of string * int * int

type stream = {
  mutable tokens : located list;
  (* location of the most recently consumed token, so running off the end
     of a truncated token list still reports a position *)
  mutable last_line : int;
  mutable last_col : int;
}

let stream tokens = { tokens; last_line = 1; last_col = 1 }

(* [tokenize] always terminates the list with [Eof], so a well-formed
   stream never runs dry; but a truncated or empty list must surface as
   a located parse error, never as an [Assert_failure]. *)
let truncated s =
  raise (Parse_error ("unexpected end of input", s.last_line, s.last_col))

let peek s = match s.tokens with [] -> truncated s | t :: _ -> t

let advance s =
  match s.tokens with
  | [] -> truncated s
  | t :: rest ->
      s.last_line <- t.line;
      s.last_col <- t.col;
      s.tokens <- rest

let fail_at loc fmt =
  Format.kasprintf (fun msg -> raise (Parse_error (msg, loc.line, loc.col))) fmt

let expect_punct s p =
  let t = peek s in
  match t.token with
  | Punct q when String.equal p q -> advance s
  | other -> fail_at t "expected %S but found %a" p pp_token other

let expect_ident ?(what = "an identifier") s =
  let t = peek s in
  match t.token with
  | Ident name ->
      advance s;
      name
  | other -> fail_at t "expected %s but found %a" what pp_token other

let expect_int s =
  let t = peek s in
  match t.token with
  | Int n ->
      advance s;
      n
  | other -> fail_at t "expected an integer but found %a" pp_token other
