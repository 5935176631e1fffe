open Artemis_util
module Nvm = Artemis_nvm.Nvm
module Device = Artemis_device.Device
module Cost_model = Artemis_device.Cost_model
module Report = Artemis_device.Report
module Event = Artemis_trace.Event
module Stats = Artemis_trace.Stats
module Task = Artemis_task.Task
module Backend = Artemis_backend.Backend
module S = Artemis_spec.Ast

type annotation =
  | Expires of { producer : string; within : Time.t; path : int option }
  | Requires of { producer : string; count : int; path : int option }

let annotations_of_spec spec =
  List.filter_map
    (fun { S.task; properties } ->
      let annotations =
        List.filter_map
          (function
            | S.Mitd { limit; dp_task; path; _ } ->
                Some (Expires { producer = dp_task; within = limit; path })
            | S.Collect { n; dp_task; path; _ } ->
                Some (Requires { producer = dp_task; count = n; path })
            | S.Max_tries _ | S.Max_duration _ | S.Period _ | S.Dp_data _
            | S.Min_energy _ ->
                None)
          properties
      in
      if annotations = [] then None else Some (task, annotations))
    spec

type cursor = {
  path : int;
  index : int;
  finished : bool;
  attempt : int;
  end_ts : Time.t;
}

type state = {
  device : Device.t;
  paths : Task.t array array;
  annotations : (string * annotation list) list;
  cursor : cursor Nvm.cell;
  (* fused bookkeeping, all in the Runtime region (Table 2) *)
  producer_end : (string * Time.t option Nvm.cell) list;
  producer_count : (string * int Nvm.cell) list;
  prng : Prng.t;
}

let producers annotations =
  let names =
    List.concat_map
      (fun (_, anns) ->
        List.map
          (function Expires { producer; _ } | Requires { producer; _ } -> producer)
          anns)
      annotations
  in
  List.sort_uniq String.compare names

let make_state device app annotations =
  (match Task.validate app with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Mayfly.run: invalid application: " ^ msg));
  let nvm = Device.nvm device in
  let paths =
    Array.of_list (List.map (fun p -> Array.of_list p.Task.tasks) app.Task.paths)
  in
  let cursor =
    Nvm.cell nvm ~region:Runtime ~name:"mf.cursor" ~bytes:12
      { path = 1; index = 0; finished = false; attempt = 0; end_ts = Time.zero }
  in
  let producer_names = producers annotations in
  let producer_end =
    List.map
      (fun p ->
        (p, Nvm.cell nvm ~region:Runtime ~name:("mf.end." ^ p) ~bytes:9 None))
      producer_names
  in
  let producer_count =
    List.map
      (fun p ->
        (p, Nvm.cell nvm ~region:Runtime ~name:("mf.count." ^ p) ~bytes:4 0))
      producer_names
  in
  (* Mayfly keeps its expiration table for every task, annotated or not -
     the fused design the paper criticizes; declare the remaining slack so
     the footprint reflects it. *)
  let all_tasks = Task.task_names app in
  List.iteri
    (fun i name ->
      if not (List.mem name producer_names) then
        ignore
          (Nvm.cell nvm ~region:Runtime
             ~name:(Printf.sprintf "mf.slot.%d.%s" i name)
             ~bytes:13 ()))
    all_tasks;
  ignore
    (Nvm.cell nvm ~region:Runtime ~kind:Artemis_nvm.Nvm.Ram ~name:"mf.scratch"
       ~bytes:2 0);
  {
    device;
    paths;
    annotations;
    cursor;
    producer_end;
    producer_count;
    prng = Prng.create ~seed:42;
  }

let current_task st (c : cursor) = st.paths.(c.path - 1).(c.index)

let task_annotations st ~task ~path =
  match List.assoc_opt task st.annotations with
  | None -> []
  | Some anns ->
      List.filter
        (fun a ->
          match a with
          | Expires { path = Some p; _ } | Requires { path = Some p; _ } ->
              p = path
          | Expires { path = None; _ } | Requires { path = None; _ } -> true)
        anns

(* The standalone loop is priced by the default calibration. *)
let model = Cost_model.default

(* --- cursor movements --- *)

let fresh_path p = { path = p; index = 0; finished = false; attempt = 0; end_ts = Time.zero }

let advance st =
  let c = Nvm.read st.cursor in
  if c.index + 1 < Array.length st.paths.(c.path - 1) then
    Nvm.write st.cursor
      { c with index = c.index + 1; finished = false; attempt = 0 }
  else begin
    Device.record st.device (Event.Path_completed { path = c.path });
    Nvm.write st.cursor (fresh_path (c.path + 1))
  end

let restart_path st ~reason =
  let c = Nvm.read st.cursor in
  Device.record st.device
    (Event.Runtime_action { action = "restartPath"; task = (current_task st c).Task.name });
  Device.record st.device (Event.Path_restarted { path = c.path; reason });
  Nvm.write st.cursor (fresh_path c.path)

(* --- property evaluation (props_satisfied of Figure 2(b)) --- *)

let violated st ~now = function
  | Expires { producer; within; _ } -> (
      match Nvm.read (List.assoc producer st.producer_end) with
      | None -> true  (* no data yet: nothing fresh to consume *)
      | Some finished -> Time.(Time.sub now finished > within))
  | Requires { producer; count; _ } ->
      Nvm.read (List.assoc producer st.producer_count) < count

(* --- task execution --- *)

let execute_task st =
  let c = Nvm.read st.cursor in
  let task = current_task st c in
  let commit () =
    let now = Device.now st.device in
    (* producer bookkeeping, atomically with the task commit *)
    (match List.assoc_opt task.Task.name st.producer_end with
    | Some cell -> Nvm.tx_write cell (Some now)
    | None -> ());
    (match List.assoc_opt task.Task.name st.producer_count with
    | Some cell -> Nvm.tx_write cell (Nvm.read cell + 1)
    | None -> ());
    (* consumer bookkeeping: a completed task consumes its inputs *)
    List.iter
      (function
        | Requires { producer; count; _ } ->
            let cell = List.assoc producer st.producer_count in
            Nvm.tx_write cell (Stdlib.max 0 (Nvm.read cell - count))
        | Expires _ -> ())
      (task_annotations st ~task:task.Task.name ~path:c.path);
    Nvm.tx_write st.cursor { c with finished = true; end_ts = now }
  in
  ignore (Backend.attempt st.device ~task ~prng:st.prng ~commit)

let start_phase st =
  let c = Nvm.read st.cursor in
  if c.index = 0 && c.attempt = 0 then
    Device.record st.device (Event.Path_started { path = c.path });
  let c = { c with attempt = c.attempt + 1 } in
  Nvm.write st.cursor c;
  let task = current_task st c in
  Device.record st.device
    (Event.Task_started { task = task.Task.name; attempt = c.attempt });
  match
    Cost_model.consume model st.device
      model.Cost_model.mayfly_runtime_cycles_per_event
  with
  | Device.Interrupted | Device.Starved -> ()
  | Device.Completed -> (
      let anns = task_annotations st ~task:task.Task.name ~path:c.path in
      (* fused in-loop property checks are charged to the runtime, not
         to a monitor: Mayfly has no separate monitor component *)
      match
        Cost_model.consume model st.device
          (model.Cost_model.mayfly_cycles_per_property * List.length anns)
      with
      | Device.Interrupted | Device.Starved -> ()
      | Device.Completed ->
          let now = Device.now st.device in
          if List.exists (violated st ~now) anns then
            restart_path st ~reason:"expired or missing data"
          else execute_task st)

let end_phase st =
  match
    Cost_model.consume model st.device
      model.Cost_model.mayfly_runtime_cycles_per_event
  with
  | Device.Interrupted | Device.Starved -> ()
  | Device.Completed -> advance st

let run device app annotations =
  let st = make_state device app annotations in
  Report.run device @@ fun _ ->
  let c = Nvm.read st.cursor in
  if c.path > Array.length st.paths then Some Stats.Completed
  else begin
    if c.finished then end_phase st else start_phase st;
    None
  end

(* --- the unified-backend adapter (PR 10) ---

   Runs ARTEMIS [Task.app] tasks under the Mayfly execution discipline
   inside the shared runtime: the fused expiration table keeps a
   completion timestamp for {e every} task (annotated or not - the
   design Table 2 charges for), updated atomically with the task, and
   each commit pays the fused in-loop property check. *)
let backend =
  {
    Backend.name = "mayfly";
    injection_sites = [];
    setup =
      (fun ~model device app ->
        let nvm = Device.nvm device in
        let stamps =
          List.map
            (fun task_name ->
              ( task_name,
                Nvm.cell nvm ~region:Runtime ~name:("mfb.end." ^ task_name)
                  ~bytes:9 (None : Time.t option) ))
            (Task.task_names app)
        in
        (* the fused in-loop check runs before the commit becomes
           durable: an interruption rolls the whole attempt back *)
        let seal () =
          Cost_model.consume model device
            model.Cost_model.mayfly_cycles_per_property
        in
        {
          Backend.recover = (fun () -> ());
          execute =
            (fun ~task ~prng ~commit ->
              Backend.attempt ~seal device ~task ~prng ~commit:(fun () ->
                  (* expiration-table bookkeeping joins the task
                     transaction *)
                  Nvm.tx_write
                    (List.assoc task.Task.name stamps)
                    (Some (Device.now device));
                  commit ()));
        });
  }
