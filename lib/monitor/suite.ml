open Artemis_fsm

(* [dispatch] maps each statically-watched task to the deployment-ordered
   monitors that can react to its events ([On_any] watchers included, in
   place).  Events for tasks no monitor names fall back to [any_watchers].
   Monitors not in an event's list can only take the implicit
   self-transition, so skipping them is observationally equivalent to
   stepping everything. *)
type t = {
  monitors : Monitor.t list;
  dispatch : (string, Monitor.t list) Hashtbl.t;
  any_watchers : Monitor.t list;
}

let of_monitors monitors =
  let tasks =
    List.concat_map (fun m -> Table.watched_tasks (Monitor.table m)) monitors
    |> List.sort_uniq String.compare
  in
  let dispatch = Hashtbl.create (max 1 (List.length tasks)) in
  List.iter
    (fun task ->
      Hashtbl.replace dispatch task
        (List.filter (fun m -> Monitor.watches_task m task) monitors))
    tasks;
  let any_watchers =
    List.filter (fun m -> Table.watches_any_event (Monitor.table m)) monitors
  in
  { monitors; dispatch; any_watchers }

let create ?engine nvm machines =
  of_monitors
    (List.map (fun m -> Monitor.create ?engine nvm (Table.compile m)) machines)

(* The mutation API is functional: each operation rebuilds the dispatch
   index over the new monitor list, so a suite value is immutable and the
   adaptation protocol can hold both generations while it commits.  The
   monitors themselves (and their NVM cells) are shared, not copied. *)

let find t name =
  List.find_opt (fun m -> String.equal (Monitor.name m) name) t.monitors

let add t monitor =
  if find t (Monitor.name monitor) <> None then
    invalid_arg
      (Printf.sprintf "Suite.add: monitor %S already deployed"
         (Monitor.name monitor));
  of_monitors (t.monitors @ [ monitor ])

let remove t name =
  if find t name = None then
    invalid_arg (Printf.sprintf "Suite.remove: no monitor %S deployed" name);
  of_monitors
    (List.filter (fun m -> not (String.equal (Monitor.name m) name)) t.monitors)

let replace t monitor =
  let name = Monitor.name monitor in
  if find t name = None then
    invalid_arg (Printf.sprintf "Suite.replace: no monitor %S deployed" name);
  of_monitors
    (List.map
       (fun m -> if String.equal (Monitor.name m) name then monitor else m)
       t.monitors)

let monitors t = t.monitors
let hard_reset t = List.iter Monitor.hard_reset t.monitors

let relevant_monitors t (event : Interp.event) =
  match Hashtbl.find_opt t.dispatch event.Interp.task with
  | Some ms -> ms
  | None -> t.any_watchers

let step_all t event =
  List.concat_map (fun m -> Monitor.step m event) (relevant_monitors t event)

let step_all_unindexed t event =
  List.concat_map (fun m -> Monitor.step m event) t.monitors

let reinit_for_tasks t ~tasks =
  List.iter
    (fun m ->
      if List.exists (fun task -> Monitor.watches_task m task) tasks then
        Monitor.reinitialize m)
    t.monitors

let fram_bytes t =
  List.fold_left (fun acc m -> acc + Monitor.fram_bytes m) 0 t.monitors

let severity = function
  | Ast.Skip_path -> 4
  | Ast.Restart_path -> 3
  | Ast.Complete_path -> 2
  | Ast.Skip_task -> 1
  | Ast.Restart_task -> 0

let arbitrate failures =
  List.fold_left
    (fun best (f : Interp.failure) ->
      match best with
      | None -> Some f
      | Some b -> if severity f.action > severity b.action then Some f else Some b)
    None failures
