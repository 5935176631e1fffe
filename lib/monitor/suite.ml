open Artemis_fsm

(* The deployment-ordered monitor list.  Every event is delivered to every
   monitor, as the paper's callMonitor does; a monitor whose machine does
   not watch the event's task can only take the implicit self-transition. *)
type t = Monitor.t list

let of_monitors monitors = monitors

let of_tables ?engine nvm tables =
  of_monitors (List.map (Monitor.create ?engine nvm) tables)

let create ?engine nvm machines =
  of_tables ?engine nvm (List.map Table.compile machines)

let find t name = List.find_opt (fun m -> String.equal (Monitor.name m) name) t
let monitors t = t
let hard_reset t = List.iter Monitor.hard_reset t
let step_all t event = List.concat_map (fun m -> Monitor.step m event) t

let reinit_for_tasks t ~tasks =
  List.iter
    (fun m ->
      if List.exists (fun task -> Monitor.watches_task m task) tasks then
        Monitor.reinitialize m)
    t

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
