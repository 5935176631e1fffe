open Artemis_util
open Artemis_nvm

type context = { nvm : Nvm.t; now : Time.t; prng : Prng.t }

type t = {
  name : string;
  duration : Time.t;
  power : Energy.power;
  body : context -> unit;
  monitored : (string * (unit -> float)) list;
}

let make ~name ~duration ~power ?(monitored = []) ?(body = fun _ -> ()) () =
  if String.length name = 0 then invalid_arg "Task.make: empty name";
  if Time.is_negative duration then invalid_arg "Task.make: negative duration";
  { name; duration; power; body; monitored }

type path = { index : int; tasks : t list }
type app = { app_name : string; paths : path list }

let app ~name paths = { app_name = name; paths }

let validate a =
  let ( let* ) r f = Result.bind r f in
  let* () = if a.paths = [] then Error "application has no paths" else Ok () in
  let* () =
    let ok =
      List.for_all2
        (fun p i -> p.index = i)
        a.paths
        (List.init (List.length a.paths) (fun i -> i + 1))
    in
    if ok then Ok () else Error "paths must be indexed 1..n in order"
  in
  let* () =
    match List.find_opt (fun p -> p.tasks = []) a.paths with
    | Some p -> Error (Printf.sprintf "path #%d is empty" p.index)
    | None -> Ok ()
  in
  (* A name must always denote the same task value (physical sharing). *)
  let seen = Hashtbl.create 16 in
  let check_task acc t =
    let* () = acc in
    match Hashtbl.find_opt seen t.name with
    | None ->
        Hashtbl.add seen t.name t;
        Ok ()
    | Some t' ->
        if t' == t then Ok ()
        else Error (Printf.sprintf "task name %S bound to two different tasks" t.name)
  in
  List.fold_left
    (fun acc p -> List.fold_left check_task acc p.tasks)
    (Ok ()) a.paths

let find_task a name =
  let rec in_paths = function
    | [] -> None
    | p :: rest -> (
        match List.find_opt (fun t -> String.equal t.name name) p.tasks with
        | Some t -> Some t
        | None -> in_paths rest)
  in
  in_paths a.paths

(* The one "distinct by name, first appearance" rule: [validate] binds a
   name to one task value, so the first body seen under a name is the
   body. *)
let distinct_bodies tasks =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun t ->
      if Hashtbl.mem seen t.name then None
      else begin
        Hashtbl.add seen t.name ();
        Some (t.name, t.body)
      end)
    tasks

let find_path a index = List.find_opt (fun p -> p.index = index) a.paths
let path_count a = List.length a.paths

(* The WAR-analysis surface (PR 7): every distinct task body, named, in
   first-appearance order.  This is the execution surface of the ARTEMIS
   runtime and of the Mayfly baseline (both run Task.app values); InK
   and the checkpoint runtime apply [distinct_bodies] to their own task
   lists. *)
let bodies a = distinct_bodies (List.concat_map (fun p -> p.tasks) a.paths)
let task_names a = List.map fst (bodies a)
