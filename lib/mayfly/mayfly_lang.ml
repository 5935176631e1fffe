open Artemis_util
open Scanner
module S = Artemis_spec.Ast

type constraint_ = Expires of Time.t | Collects of int

type edge = {
  producer : string;
  consumer : string;
  constraint_ : constraint_;
  path : int option;
}

let puncts = [ "->"; ";" ]

let expect_ident s = expect_ident ~what:"a task name" s

let parse_edge s =
  let producer = expect_ident s in
  expect_punct s "->";
  let consumer = expect_ident s in
  let t = peek s in
  let constraint_ =
    match expect_ident s with
    | "expires" -> (
        let t = peek s in
        match t.token with
        | Scanner.Duration d ->
            advance s;
            Expires d
        | other -> fail_at t "expected a duration but found %a" Scanner.pp_token other)
    | "collect" -> (
        let t = peek s in
        match t.token with
        | Scanner.Int n when n > 0 ->
            advance s;
            Collects n
        | other ->
            fail_at t "expected a positive count but found %a" Scanner.pp_token other)
    | other -> fail_at t "unknown constraint %S (expires|collect)" other
  in
  let path =
    let t = peek s in
    match t.token with
    | Scanner.Ident "Path" -> (
        advance s;
        let t = peek s in
        match t.token with
        | Scanner.Int p when p > 0 ->
            advance s;
            Some p
        | other ->
            fail_at t "expected a path index but found %a" Scanner.pp_token other)
    | _ -> None
  in
  expect_punct s ";";
  { producer; consumer; constraint_; path }

let parse_exn src =
  let wrap f =
    try f () with
    | Parse_error (msg, line, col) ->
        failwith (Printf.sprintf "mayfly-lang parse error at %d:%d: %s" line col msg)
    | Scanner.Lex_error (msg, line, col) ->
        failwith (Printf.sprintf "mayfly-lang lex error at %d:%d: %s" line col msg)
  in
  wrap (fun () ->
      let s = stream (Scanner.tokenize ~puncts src) in
      let rec edges acc =
        match (peek s).token with
        | Scanner.Eof -> List.rev acc
        | _ -> edges (parse_edge s :: acc)
      in
      edges [])

let parse src =
  match parse_exn src with
  | edges -> Ok edges
  | exception Failure msg -> Result.Error msg

let edge_to_string e =
  let constraint_ =
    match e.constraint_ with
    | Expires d -> "expires " ^ Time.to_literal d
    | Collects n -> Printf.sprintf "collect %d" n
  in
  let path = match e.path with None -> "" | Some p -> Printf.sprintf " Path %d" p in
  Printf.sprintf "%s -> %s %s%s;" e.producer e.consumer constraint_ path

let to_string edges = String.concat "\n" (List.map edge_to_string edges) ^ "\n"

(* Group edges by consumer into ARTEMIS task blocks; Mayfly's fixed
   reaction is a path restart. *)
let to_spec edges =
  let consumers =
    List.sort_uniq String.compare (List.map (fun e -> e.consumer) edges)
  in
  List.map
    (fun consumer ->
      let properties =
        List.filter_map
          (fun e ->
            if not (String.equal e.consumer consumer) then None
            else
              match e.constraint_ with
              | Expires limit ->
                  Some
                    (S.Mitd
                       {
                         limit;
                         dp_task = e.producer;
                         on_fail = S.Restart_path;
                         max_attempt = None;
                         path = e.path;
                       })
              | Collects n ->
                  Some
                    (S.Collect
                       {
                         n;
                         dp_task = e.producer;
                         on_fail = S.Restart_path;
                         path = e.path;
                       }))
          edges
      in
      { S.task = consumer; properties })
    consumers

let to_machines edges = Artemis_transform.To_fsm.spec (to_spec edges)

let to_annotations edges =
  Mayfly.annotations_of_spec (to_spec edges)

let equal_edge a b =
  String.equal a.producer b.producer
  && String.equal a.consumer b.consumer
  && (match (a.constraint_, b.constraint_) with
     | Expires x, Expires y -> Time.equal x y
     | Collects x, Collects y -> x = y
     | (Expires _ | Collects _), _ -> false)
  && a.path = b.path

let equal a b = List.length a = List.length b && List.for_all2 equal_edge a b
