(** Public facade of the ARTEMIS reproduction.

    Typical use (see [examples/quickstart.ml]):
    {[
      let device = Artemis.Device.create () in
      let app, _handles = Artemis.Health_app.make (Artemis.Device.nvm device) in
      let suite =
        Artemis.compile_and_deploy_exn device app Artemis.Health_app.spec_text
      in
      let stats = Artemis.Runtime.run device app suite in
      Format.printf "%a@." Artemis.Stats.pp stats
    ]} *)

(* Re-exported building blocks, one alias per subsystem. *)
module Time = Artemis_util.Time
module Energy = Artemis_util.Energy
module Table = Artemis_util.Table
module Prng = Artemis_util.Prng
module Json = Artemis_util.Json
module Par = Artemis_util.Par
module Obs = Artemis_obs.Obs
module Nvm = Artemis_nvm.Nvm
module Site = Artemis_nvm.Site
module Persistent_clock = Artemis_clock.Persistent_clock
module Remanence_timekeeper = Artemis_clock.Remanence_timekeeper
module Capacitor = Artemis_energy.Capacitor
module Harvester = Artemis_energy.Harvester
module Charging_policy = Artemis_energy.Charging_policy
module Event = Artemis_trace.Event
module Log = Artemis_trace.Log
module Stats = Artemis_trace.Stats
module Export = Artemis_trace.Export
module Summary = Artemis_trace.Summary
module Device = Artemis_device.Device
module Cost_model = Artemis_device.Cost_model
module Energy_analysis = Artemis_energy_analysis.Energy_analysis
module Task = Artemis_task.Task
module Channel = Artemis_task.Channel
module Health_app = Artemis_task.Health_app
module Soil_app = Artemis_task.Soil_app

module Spec = struct
  module Ast = Artemis_spec.Ast
  module Parser = Artemis_spec.Parser
  module Printer = Artemis_spec.Printer
  module Validate = Artemis_spec.Validate
  module Consistency = Artemis_spec.Consistency
end

module Fsm = struct
  module Ast = Artemis_fsm.Ast
  module Parser = Artemis_fsm.Parser
  module Printer = Artemis_fsm.Printer
  module Typecheck = Artemis_fsm.Typecheck
  module Interp = Artemis_fsm.Interp
  module Table = Artemis_fsm.Table
  module Explore = Artemis_fsm.Explore
end

(** Memory-consistency and input-freshness checking (PR 7): a static
    WAR-hazard pass over recorded per-task NVM access sets, and the
    dynamic freshness tracker behind faultsim's [input-freshness]
    oracle.  (Distinct from {!Spec.Consistency}, the specification
    linter.) *)
module Consistency = struct
  module War = Artemis_consistency.War
  module Freshness = Artemis_consistency.Freshness
end

module To_fsm = Artemis_transform.To_fsm
module To_c = Artemis_transform.To_c
module To_c_project = Artemis_transform.To_c_project
module Monitor = Artemis_monitor.Monitor
module Suite = Artemis_monitor.Suite
module Adapt = Artemis_adapt.Adapt
module Backend = Artemis_backend.Backend
module Runtime = Artemis_runtime.Runtime
module Mayfly = Artemis_mayfly.Mayfly
module Mayfly_lang = Artemis_mayfly.Mayfly_lang
module Immortal = Artemis_immortal.Immortal
module Checkpoint = Artemis_checkpoint.Checkpoint
module Ink = Artemis_ink.Ink
module Alpaca = Artemis_alpaca.Alpaca

(** The runtime-matrix registry (PR 10): every task-execution backend the
    shared runtime can host, reference family first.  All five run the
    same applications, monitors, and fault-injection campaigns; only the
    task commit protocol (and its energy/FRAM cost) differs. *)
module Backends = struct
  let all : Backend.b list =
    [
      Backend.immortal;
      Checkpoint.backend;
      Ink.backend;
      Mayfly.backend;
      Alpaca.backend;
    ]

  let names = List.map (fun b -> b.Backend.name) all

  let find name =
    List.find_opt (fun b -> String.equal b.Backend.name name) all
end

(** Compile a property specification (concrete syntax) into intermediate-
    language machines, validating it against the application when one is
    given. *)
let compile ?options ?app spec_text =
  let ( let* ) r f = Result.bind r f in
  let* spec = Spec.Parser.parse spec_text in
  let* () =
    match app with
    | None -> Ok ()
    | Some app -> (
        match Spec.Validate.check app spec with
        | Ok () -> Ok ()
        | Error issues -> Error (Spec.Validate.issues_to_string issues))
  in
  Ok (To_fsm.spec ?options spec)

let compile_exn ?options ?app spec_text =
  match compile ?options ?app spec_text with
  | Ok machines -> machines
  | Error msg -> failwith msg

(** Allocate the application-specific monitors on a device's FRAM.
    [engine] selects the execution backend (default [Monitor.Table], the
    flat-table bytecode engine; [Monitor.Interpreted] keeps the reference
    AST interpreter). *)
let deploy ?engine device machines =
  Suite.create ?engine (Device.nvm device) machines

(** Full front-to-back pipeline: parse, validate against [app], compile to
    machines, deploy on [device]. *)
let compile_and_deploy_exn ?options ?engine device app spec_text =
  deploy ?engine device (compile_exn ?options ~app spec_text)

(** Generated monitor translation unit (Section 4.2). *)
let generate_monitor_c ?options spec_text =
  Result.map To_c.suite (compile ?options spec_text)
