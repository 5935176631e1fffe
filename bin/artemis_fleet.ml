(* artemis_fleet: run a fleet of simulated intermittent devices - a
   scenario x seed x harvester x engine x backend matrix - sharded over
   domains, and print one deterministically-merged report. *)

open Cmdliner

let prog = "artemis_fleet"

let load_spec spec_path name scenarios seeds seed_first harvesters engines
    backends =
  match spec_path with
  | Some path -> Fleet.spec_of_json (Cli.read_file ~prog path)
  | None ->
      (* the inline flags are the spec's fields; the first bad harvester
         profile is the error *)
      let profiles =
        List.fold_right
          (fun h acc ->
            Result.bind (Fleet.profile_of_string h) (fun p ->
                Result.map (List.cons p) acc))
          harvesters (Ok [])
      in
      Result.bind profiles (fun profiles ->
          Fleet.validate_spec
            { Fleet.fleet_name = name; scenarios; seed_first;
              seed_count = seeds; profiles; engines; backends })

(* --progress: completion ticks with a wall-clock ETA on stderr.  Rendered
   from completion order, so it never touches the (deterministic) report. *)
let progress_printer total =
  let started = Unix.gettimeofday () in
  let last_line = ref 0 in
  fun ~completed ~total:_ ->
    let elapsed = Unix.gettimeofday () -. started in
    let pct = 100 * completed / total in
    let line =
      if completed = total then
        Printf.sprintf "fleet: %d/%d devices in %.1fs\n" completed total elapsed
      else if elapsed > 0.2 && completed > 0 then
        let eta = elapsed /. float_of_int completed
                  *. float_of_int (total - completed) in
        Printf.sprintf "\rfleet: %d/%d (%d%%) eta %.0fs " completed total pct
          eta
      else Printf.sprintf "\rfleet: %d/%d (%d%%) " completed total pct
    in
    (* Overwrite the previous line; pad when the new one is shorter. *)
    let pad = max 0 (!last_line - String.length line) in
    last_line := String.length line;
    prerr_string (line ^ String.make pad ' ');
    flush stderr

let run spec_path name scenarios seeds seed_first harvesters engines backends
    jobs json devices out progress =
  match
    load_spec spec_path name scenarios seeds seed_first harvesters engines
      backends
  with
  | Error msg ->
      Printf.eprintf "%s: %s\n" prog msg;
      1
  | Ok spec ->
      (* opened before the sweep, so a bad path fails before the work *)
      let out = Option.map (Cli.open_out ~prog) out in
      let on_progress =
        if progress then Some (progress_printer (Fleet.spec_size spec))
        else None
      in
      let report = Fleet.run ~jobs ?on_progress spec in
      let emit oc =
        if json then Fleet.output_report_json ~devices oc report
        else output_string oc (Fleet.report_summary report)
      in
      (match out with
      | None -> emit stdout
      | Some ((path, _) as out) ->
          Cli.finish_out ~prog out emit;
          Printf.printf "fleet report written to %s\n" path);
      0

let spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spec" ] ~docv:"FILE"
        ~doc:
          "Fleet spec JSON: {\"name\", \"scenarios\": [..], \"seeds\": \
           {\"first\", \"count\"}, \"harvesters\": [..], \"engines\": [..], \
           \"backends\": [..]}. Overrides the inline flags below.")

let name_arg =
  Arg.(
    value & opt string "fleet"
    & info [ "name" ] ~docv:"NAME" ~doc:"Fleet name for the report.")

let scenario_arg =
  Arg.(
    value
    & opt_all string [ "quickstart" ]
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          "Scenario(s) to deploy across the fleet (repeatable; default \
           $(b,quickstart)).  Same catalogue as $(b,faultsim).")

let seeds_arg =
  Arg.(
    value & opt int 10
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Seeds per scenario/harvester/engine/backend cell (default 10).")

let seed_first_arg =
  Arg.(
    value & opt int 0
    & info [ "seed-first" ] ~docv:"SEED" ~doc:"First seed (default 0).")

let harvester_arg =
  Arg.(
    value
    & opt_all string [ "default" ]
    & info [ "harvester" ] ~docv:"PROFILE"
        ~doc:
          "Harvester profile(s) (repeatable): $(b,default) keeps the \
           scenario's charging policy, $(b,fixed:30s) a fixed charging \
           delay, $(b,duty:200uw) a 2-minute duty-cycled harvester at the \
           given average power, $(b,constant:65uw) steady incoming power.")

let engine_arg =
  Arg.(
    value
    & opt_all string [ "default" ]
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Monitor engine(s) (repeatable): $(b,default) keeps each \
           scenario's own engine, or $(b,table) or $(b,interpreted).")

let backend_arg =
  Arg.(
    value
    & opt_all string [ "immortal" ]
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Task-execution backend(s) (repeatable): $(b,immortal), \
           $(b,checkpoint), $(b,ink), $(b,mayfly) or $(b,alpaca).")

let jobs_arg =
  Cli.jobs ~prog ~default:0
    ~doc:
      "Shard devices over $(docv) domains (default 0 = auto: one worker \
       per core).  The report is byte-identical for every $(docv)."

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let devices_arg =
  Arg.(
    value & flag
    & info [ "devices" ]
        ~doc:"Include the full per-device array in the JSON report.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Write the report to $(docv) instead of stdout.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Print completion progress and an ETA to stderr.")

let cmd =
  let doc = "simulate a fleet of intermittent devices in parallel" in
  Cmd.v
    (Cmd.info "artemis_fleet" ~doc)
    Term.(
      const run $ spec_arg $ name_arg $ scenario_arg $ seeds_arg
      $ seed_first_arg $ harvester_arg $ engine_arg $ backend_arg $ jobs_arg
      $ json_arg $ devices_arg $ out_arg $ progress_arg)

let () = exit (Cmd.eval' cmd)
