(* artemisc: the ARTEMIS monitor compiler CLI.

   Reads a property specification and emits, per the chosen stage of the
   Figure 3 pipeline: the re-printed specification ("spec"), the
   intermediate-language state machines ("fsm", the model-to-model
   transformation), or the generated C monitors ("c", the model-to-text
   transformation). *)

open Cmdliner

let prog = "artemisc"

type emit = Spec | Fsm | C | Lint | Project

(* --engine: report what each property costs under the chosen execution
   backend.  For the table engine this is the per-property flat-buffer
   footprint in words (dense dispatch rows + CSR segments + transition
   metadata, then bytecode + float pool) - the number an NVM-resident
   deployment of the tables would occupy. *)
let engine_report engine machines =
  let buf = Buffer.create 256 in
  let adds fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match (engine : Artemis.Monitor.engine) with
  | Interpreted ->
      adds "engine: interpreted (AST walk, reference semantics)\n";
      List.iter
        (fun (m : Artemis.Fsm.Ast.machine) ->
          adds "%s: %d states, %d vars, %d transitions\n"
            m.Artemis.Fsm.Ast.machine_name
            (List.length m.Artemis.Fsm.Ast.states)
            (List.length m.Artemis.Fsm.Ast.vars)
            (List.fold_left
               (fun acc (s : Artemis.Fsm.Ast.state) ->
                 acc + List.length s.Artemis.Fsm.Ast.transitions)
               0 m.Artemis.Fsm.Ast.states))
        machines
  | Table ->
      adds "engine: table (flat dispatch + bytecode)\n";
      let total = ref 0 in
      List.iter
        (fun m ->
          let t = Artemis.Fsm.Table.compile m in
          total := !total + Artemis.Fsm.Table.buffer_words t;
          adds "%s: dispatch %dw + bytecode %dw = %d words (regs: %d int, %d float)\n"
            (Artemis.Fsm.Table.name t)
            (Artemis.Fsm.Table.dispatch_words t)
            (Artemis.Fsm.Table.code_words t)
            (Artemis.Fsm.Table.buffer_words t)
            (Artemis.Fsm.Table.int_regs t)
            (Artemis.Fsm.Table.float_regs t))
        machines;
      adds "total: %d words\n" !total);
  Buffer.contents buf

(* --check: rebuild a faultsim scenario from the catalogue and run the
   static WAR-hazard pass (Artemis.Consistency.War) over its task
   surface.  The scenario is built fresh (seed 42) purely to be
   recorded, so the pass's committed-write side effects are harmless. *)
let check_scenarios names allow_hazard =
  let module Scenario = Artemis_faultsim.Scenario in
  let rec go worst = function
    | [] -> worst
    | name :: rest -> (
        match Scenario.lookup name with
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            1
        | Ok sc ->
            let b = sc.Scenario.build ~engine:None ~seed:42 in
            let report =
              Artemis.Consistency.War.analyze_app
                (Artemis.Device.nvm b.Scenario.device)
                b.Scenario.app
            in
            Printf.printf "scenario %s: %s" name
              (Artemis.Consistency.War.report_to_string report);
            let worst =
              if Artemis.Consistency.War.has_hazards report && not allow_hazard
              then max worst 1
              else worst
            in
            go worst rest)
  in
  go 0 names

(* --energy-report: rebuild a faultsim scenario and run the static
   energy-admissibility analysis over its deployed suite's own tables and
   every scheduled OTA payload, decoded and lowered as the device's
   validate step does it.  Exits 1 when anything classifies "may
   livelock" - the same condition under which the runtime's adaptation
   validate step refuses the update as energy-inadmissible. *)
let energy_report names as_json =
  let module Scenario = Artemis_faultsim.Scenario in
  let module Ea = Artemis.Energy_analysis in
  let rec go worst = function
    | [] -> worst
    | name :: rest -> (
        match Scenario.lookup name with
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            1
        | Ok sc -> (
            let b = sc.Scenario.build ~engine:None ~seed:42 in
            let model = b.Scenario.config.Artemis.Runtime.cost_model in
            let deployment = b.Scenario.config.Artemis.Runtime.deployment in
            let budget = Ea.budget_of_device b.Scenario.device in
            let deployed =
              Ea.analyze ~deployment ~model ~budget ~origin:"deployed"
                (List.map Artemis.Monitor.table
                   (Artemis.Suite.monitors b.Scenario.suite))
            in
            (* each scheduled update with its payload's tables; a bad
               payload is reported once and left out *)
            let updates =
              List.filter_map
                (fun (_at, (u : Artemis.Adapt.update)) ->
                  match
                    Option.fold ~none:(Ok [])
                      ~some:(Artemis.Adapt.payload_tables ~app:b.Scenario.app)
                      u.Artemis.Adapt.payload
                  with
                  | Ok tables -> Some (u.Artemis.Adapt.id, tables)
                  | Error e ->
                      Printf.eprintf "scenario %s: bad update payload: %s\n"
                        name e;
                      None)
                b.Scenario.adaptations
            in
            let entries =
              deployed
              @ List.concat_map
                  (fun (id, tables) ->
                    Ea.analyze ~deployment ~model ~budget
                      ~origin:(Printf.sprintf "update #%d" id)
                      tables)
                  updates
            in
            let buf = Buffer.create 1024 in
            if as_json then
              Ea.render_json ~scenario:name ~deployment ~model ~budget entries
                buf
            else begin
              Ea.render_human ~scenario:name ~deployment ~model ~budget
                entries buf;
              (* surface the adapt-time admission verdict for every
                 scheduled update: exactly what Adapt.validate will say *)
              List.iter
                (fun (id, tables) ->
                  Printf.bprintf buf "  update #%d: %s\n" id
                    (match Ea.admit ~deployment ~model ~budget tables with
                    | Ok () -> "admissible (validate will accept)"
                    | Error reason -> "rejected by validate: " ^ reason))
                updates
            end;
            print_string (Buffer.contents buf);
            if List.exists (fun e -> e.Ea.e_class = Ea.May_livelock) entries
            then go (max worst 1) rest
            else go worst rest))
  in
  go 0 names

let run_compile emit engine reset_on_fail input output =
  let text =
    if input = "-" then In_channel.input_all stdin
    else Cli.read_file ~prog input
  in
  let options = { Artemis.To_fsm.collect_reset_on_fail = reset_on_fail } in
  let result =
    match Artemis.Spec.Parser.parse text with
    | Error msg -> Error msg
    | Ok spec when engine <> None -> (
        let machines = Artemis.To_fsm.spec ~options spec in
        match engine with
        | Some e -> (
            try Ok (engine_report e machines) with Failure msg -> Error msg)
        | None -> assert false)
    | Ok spec -> (
        match emit with
        | Spec -> Ok (Artemis.Spec.Printer.to_string spec)
        | Fsm ->
            Ok
              (Artemis.Fsm.Printer.machines_to_string
                 (Artemis.To_fsm.spec ~options spec))
        | C -> Ok (Artemis.To_c.suite (Artemis.To_fsm.spec ~options spec))
        | Lint ->
            let findings = Artemis.Spec.Consistency.check_spec spec in
            if findings = [] then Ok "no consistency findings\n"
            else Ok (Artemis.Spec.Consistency.to_string findings ^ "\n")
        | Project ->
            (* a skeleton application derived from the specification: every
               mentioned task on one path, placeholder calibration *)
            let mentioned =
              List.concat_map
                (fun { Artemis.Spec.Ast.task; properties } ->
                  task
                  :: List.filter_map
                       (function
                         | Artemis.Spec.Ast.Mitd { dp_task; _ }
                         | Artemis.Spec.Ast.Collect { dp_task; _ } ->
                             Some dp_task
                         | _ -> None)
                       properties)
                spec
            in
            let seen = Hashtbl.create 8 in
            let tasks =
              List.filter_map
                (fun name ->
                  if Hashtbl.mem seen name then None
                  else begin
                    Hashtbl.add seen name ();
                    Some
                      (Artemis.Task.make ~name
                         ~duration:(Artemis.Time.of_ms 100)
                         ~power:(Artemis.Energy.mw 1.2) ())
                  end)
                mentioned
            in
            let app =
              Artemis.Task.app ~name:"generated"
                [ { Artemis.Task.index = 1; tasks } ]
            in
            let machines = Artemis.To_fsm.spec ~options spec in
            let files = Artemis.To_c_project.project ~app ~machines in
            Ok
              (String.concat ""
                 (List.map
                    (fun f ->
                      Printf.sprintf "/* ===== %s ===== */\n%s\n"
                        f.Artemis.To_c_project.path f.Artemis.To_c_project.contents)
                    files)))
  in
  match result with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok out -> (
      match output with
      | None ->
          print_string out;
          0
      | Some path ->
          Cli.write_file ~prog path (fun oc -> output_string oc out);
          0)

let run emit engine reset_on_fail check allow_hazard energy energy_json input
    output =
  if check <> [] then check_scenarios check allow_hazard
  else if energy <> [] then energy_report energy energy_json
  else run_compile emit engine reset_on_fail input output

let emit_arg =
  let stage_conv =
    Arg.enum
      [ ("spec", Spec); ("fsm", Fsm); ("c", C); ("lint", Lint); ("project", Project) ]
  in
  Arg.(
    value
    & opt stage_conv C
    & info [ "e"; "emit" ] ~docv:"STAGE"
        ~doc:"Output stage: $(b,spec) (re-printed specification), $(b,fsm) \
              (intermediate-language machines), $(b,c) (generated C \
              monitors, default), $(b,lint) (consistency findings) or \
              $(b,project) (a complete C project tree, concatenated).")

let engine_arg =
  Cli.engine
    ~doc:"Report the per-property cost of running the generated machines \
          under $(docv): $(b,interpreted) or $(b,table). For $(b,table) \
          prints each property's flat-buffer footprint (dispatch table + \
          bytecode, in words) and its register-file size.  Replaces the \
          normal $(b,--emit) output."

let reset_arg =
  Arg.(
    value & flag
    & info [ "collect-reset-on-fail" ]
        ~doc:"Compile $(b,collect) with the literal Figure 7 semantics \
              (counter zeroed on failure) instead of the accumulate \
              default.")

let check_arg =
  Arg.(
    value & opt_all string []
    & info [ "check" ] ~docv:"SCENARIO"
        ~doc:"Run the static WAR-hazard pass over the named faultsim \
              scenario's task surface instead of compiling a \
              specification.  Repeatable.  Exits 1 if any hazard is \
              found, unless $(b,--allow-hazard) is also given.")

let allow_hazard_arg =
  Arg.(
    value & flag
    & info [ "allow-hazard" ]
        ~doc:"Report WAR hazards without failing: $(b,--check) exits 0 \
              even when hazards are found.")

let energy_report_arg =
  Arg.(
    value & opt_all string []
    & info [ "energy-report" ] ~docv:"SCENARIO"
        ~doc:"Run the static energy-admissibility analysis over the named \
              faultsim scenario: per-property worst-case monitor-call \
              bounds against the device's usable charge budget, for the \
              deployed suite and every scheduled OTA payload.  Repeatable. \
              Exits 1 if any property classifies \"may livelock\".")

let energy_json_arg =
  Arg.(
    value & flag
    & info [ "energy-json" ]
        ~doc:"Emit the $(b,--energy-report) analysis as one line of JSON \
              per scenario instead of the human-readable table.")

let input_arg =
  Arg.(
    value & pos 0 string "-"
    & info [] ~docv:"SPEC" ~doc:"Property specification file ('-' = stdin).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write output to $(docv).")

let cmd =
  let doc = "compile ARTEMIS property specifications into runtime monitors" in
  Cmd.v
    (Cmd.info "artemisc" ~doc)
    Term.(
      const run $ emit_arg $ engine_arg $ reset_arg $ check_arg
      $ allow_hazard_arg $ energy_report_arg $ energy_json_arg $ input_arg
      $ output_arg)

let () = exit (Cmd.eval' cmd)
