open Artemis

(* The differential runtime matrix (PR 10): one scenario, every
   registered backend, the same monitors.  The reference row is the
   first registry entry (immortal); every other backend must reproduce
   its verdict stream exactly - same monitor verdicts and corrective
   actions, in the same order.  Timestamps and energy are backend cost,
   not semantics, so they are compared as columns, not as equality. *)

type row = {
  backend : string;
  outcome : string;
  power_failures : int;
  task_executions : int;
  energy_app : Energy.energy;
  energy_runtime : Energy.energy;
  energy_monitor : Energy.energy;
  runtime_fram_bytes : int;
  verdicts : string list;
  agrees : bool;
}

type report = {
  scenario : string;
  seed : int;
  reference : string;
  rows : row list;
  agreement : bool;
}

(* The semantic stream: monitor verdicts and the corrective actions they
   trigger, rendered without timestamps (backends shift time, never
   meaning). *)
let verdict_stream log =
  List.filter_map
    (fun (e : Event.timed) ->
      match e.Event.event with
      | Event.Monitor_verdict _ | Event.Runtime_action _ ->
          Some (Event.to_string e.Event.event)
      | _ -> None)
    (Log.events log)

let run_backend (scenario : Scenario.t) ~seed bk =
  let b =
    (Scenario.with_backend bk ~name:scenario.Scenario.name
       ~description:scenario.Scenario.description scenario)
      .Scenario.build ~engine:None ~seed
  in
  let stats =
    Runtime.run ~config:b.Scenario.config ~adaptations:b.Scenario.adaptations
      ~backend:b.Scenario.backend b.Scenario.device b.Scenario.app
      b.Scenario.suite
  in
  let verdicts = verdict_stream (Device.log b.Scenario.device) in
  {
    backend = bk.Backend.name;
    outcome = Stats.outcome_string stats;
    power_failures = stats.Stats.power_failures;
    task_executions = stats.Stats.task_executions;
    energy_app = stats.Stats.energy_app;
    energy_runtime = stats.Stats.energy_runtime;
    energy_monitor = stats.Stats.energy_monitor;
    runtime_fram_bytes = Runtime.runtime_fram_bytes b.Scenario.device;
    verdicts;
    agrees = true;
  }

let run ?(backends = Backends.all) (scenario : Scenario.t) ~seed =
  match backends with
  | [] -> invalid_arg "Matrix.run: no backends"
  | reference_bk :: _ ->
      let rows = List.map (run_backend scenario ~seed) backends in
      let reference = List.hd rows in
      let rows =
        List.map
          (fun r -> { r with agrees = r.verdicts = reference.verdicts })
          rows
      in
      {
        scenario = scenario.Scenario.name;
        seed;
        reference = reference_bk.Backend.name;
        rows;
        agreement = List.for_all (fun r -> r.agrees) rows;
      }

let summary report =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "runtime matrix: %s (seed %d), verdict reference %s\n" report.scenario
    report.seed report.reference;
  let table =
    Table.create
      ~headers:
        [ "backend"; "outcome"; "fails"; "execs"; "E_app mJ"; "E_rt mJ";
          "E_mon mJ"; "rt FRAM B"; "verdicts"; "agree" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.backend;
          r.outcome;
          string_of_int r.power_failures;
          string_of_int r.task_executions;
          Printf.sprintf "%.3f" (Energy.to_mj r.energy_app);
          Printf.sprintf "%.3f" (Energy.to_mj r.energy_runtime);
          Printf.sprintf "%.3f" (Energy.to_mj r.energy_monitor);
          string_of_int r.runtime_fram_bytes;
          string_of_int (List.length r.verdicts);
          (if r.agrees then "yes" else "NO");
        ])
    report.rows;
  Buffer.add_string buf (Table.render table);
  Buffer.add_char buf '\n';
  if report.agreement then
    add "verdict streams: all %d backends agree\n" (List.length report.rows)
  else begin
    add "VERDICT DIVERGENCE against %s:\n" report.reference;
    let reference =
      List.find (fun r -> r.backend = report.reference) report.rows
    in
    List.iter
      (fun r ->
        if not r.agrees then
          add "  %s: [%s] vs reference [%s]\n" r.backend
            (String.concat "; " r.verdicts)
            (String.concat "; " reference.verdicts))
      report.rows
  end;
  Buffer.contents buf

let to_json report =
  let js = Faultsim.json_string in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"scenario\": %s,\n" (js report.scenario);
  add "  \"seed\": %d,\n" report.seed;
  add "  \"reference\": %s,\n" (js report.reference);
  add "  \"rows\": [\n";
  let last = List.length report.rows - 1 in
  List.iteri
    (fun i r ->
      add
        "    {\"backend\": %s, \"outcome\": %s, \"power_failures\": %d, \
         \"task_executions\": %d, \"energy_app_mj\": %.6f, \
         \"energy_runtime_mj\": %.6f, \"energy_monitor_mj\": %.6f, \
         \"runtime_fram_bytes\": %d, \"verdicts\": [%s], \"agrees\": %b}%s\n"
        (js r.backend) (js r.outcome) r.power_failures r.task_executions
        (Energy.to_mj r.energy_app)
        (Energy.to_mj r.energy_runtime)
        (Energy.to_mj r.energy_monitor)
        r.runtime_fram_bytes
        (String.concat ", " (List.map js r.verdicts))
        r.agrees
        (if i = last then "" else ",")
    )
    report.rows;
  add "  ],\n";
  add "  \"agreement\": %b\n" report.agreement;
  add "}\n";
  Buffer.contents buf
