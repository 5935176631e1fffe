(* artemis_sim: run the health-monitoring benchmark on the simulated
   intermittent device under either runtime, printing statistics and
   (optionally) the execution trace. *)

open Cmdliner
open Artemis_experiments

let prog = "artemis_sim"

(* Self-validate an export before reporting success: the trace must be a
   parseable JSON document whose B/E events pair up per track, and the
   metrics counters must reconcile with the log-derived stats.  Failing
   either is a bug in the observability layer, reported as exit 1. *)
let check_trace_json text =
  match Artemis.Json.parse text with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok doc -> (
      match Artemis.Json.(member "traceEvents" doc) with
      | Some (Artemis.Json.Arr events) ->
          let depth = Hashtbl.create 8 in
          let bad =
            List.exists
              (fun ev ->
                let str k =
                  match Artemis.Json.member k ev with
                  | Some (Artemis.Json.Str s) -> s
                  | _ -> ""
                in
                let tid =
                  match Artemis.Json.member "tid" ev with
                  | Some (Artemis.Json.Num n) -> int_of_float n
                  | _ -> 0
                in
                let d = try Hashtbl.find depth tid with Not_found -> 0 in
                match str "ph" with
                | "B" ->
                    Hashtbl.replace depth tid (d + 1);
                    false
                | "E" ->
                    Hashtbl.replace depth tid (d - 1);
                    d - 1 < 0
                | _ -> false)
              events
          in
          let unclosed = Hashtbl.fold (fun _ d acc -> acc || d <> 0) depth false in
          if bad || unclosed then Error "unbalanced B/E span events" else Ok ()
      | _ -> Error "missing traceEvents array")

(* --adapt FILE: a JSON array of live property updates delivered to the
   running device (see Adapt.parse_script for the schema). *)
let load_adapt_script = function
  | None -> Ok None
  | Some path ->
      Result.map Option.some
        (Artemis.Adapt.parse_script (Cli.read_file ~prog path))

(* --matrix SCENARIO: run the scenario under every registered backend
   (immortal, checkpoint, ink, mayfly, alpaca) with the same monitors
   and compare the verdict streams; exit 1 on divergence. *)
let run_matrix scenario json seed =
  let report = Artemis_faultsim.Matrix.run scenario ~seed in
  print_string
    (if json then Artemis_faultsim.Matrix.to_json report
     else Artemis_faultsim.Matrix.summary report);
  if report.Artemis_faultsim.Matrix.agreement then 0 else 1

(* --experiment NAME: one of the lib/experiments sweeps (optionally
   fanned out over --jobs domains) instead of a single simulation. *)
let experiments =
  [ ("scalability", fun jobs -> Scalability.render (Scalability.run ~jobs ()));
    ( "non-watching",
      fun jobs ->
        Scalability.render_non_watching (Scalability.run_non_watching ~jobs ()) );
    ("harvester", fun jobs -> Harvester_study.render (Harvester_study.run ~jobs ()));
    ("timekeeper", fun jobs -> Timekeeper_sweep.render (Timekeeper_sweep.run ~jobs ()));
    ( "ablation",
      fun jobs ->
        let deployments = Ablation.render_deployments (Ablation.deployments ~jobs ()) in
        deployments ^ Ablation.render_collect (Ablation.collect_semantics ~jobs ()) ) ]

let run system_name engine delay_min continuous temp_base show_trace trace_limit show_summary csv_path trace_out metrics_out show_metrics adapt_path experiment matrix matrix_json seed jobs =
  Cli.check_ints ~prog
    [ ("delay", 0, delay_min); ("trace-limit", 0, trace_limit) ];
  match (Cli.scenarios ~prog (Option.to_list matrix), experiment) with
  | scenario :: _, _ -> run_matrix scenario matrix_json seed
  | [], Some name -> (
      match List.assoc_opt name experiments with
      | Some run ->
          print_string (run jobs);
          0
      | None ->
          Cli.usage ~prog
            (Printf.sprintf "unknown experiment %S (%s)" name
               (String.concat "|" (List.map fst experiments))))
  | [], None ->
  let system =
    match system_name with
    | "artemis" -> Config.Artemis_runtime
    | "mayfly" -> Config.Mayfly_runtime
    | other ->
        Cli.usage ~prog (Printf.sprintf "unknown system %S (artemis|mayfly)" other)
  in
  if system = Config.Mayfly_runtime then begin
    if adapt_path <> None then
      Cli.usage ~prog "--adapt requires the artemis runtime";
    if engine <> None then Cli.usage ~prog "--engine requires the artemis runtime"
  end;
  match load_adapt_script adapt_path with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok adaptations ->
      (* opened before the run, so a bad path fails before any output *)
      let csv = Option.map (Cli.open_out ~prog) csv_path in
      let trace_out = Option.map (Cli.open_out ~prog) trace_out in
      let metrics_out = Option.map (Cli.open_out ~prog) metrics_out in
      let supply =
        if continuous then Config.Continuous
        else Config.Intermittent (Artemis.Time.of_min delay_min)
      in
      (* the run's device records into this domain's current context *)
      let obs = Artemis.Obs.current () in
      Artemis.Obs.set_metrics obs (metrics_out <> None || show_metrics);
      Artemis.Obs.set_tracing obs (trace_out <> None);
      let { Config.stats; device; handles } =
        Config.run_health ?temp_base ?adaptations ?engine system supply
      in
      Format.printf "%a@." Artemis.Stats.pp stats;
      (if adaptations <> None then
         let adapt_events =
           List.filter
             (fun (e : Artemis.Event.timed) ->
               match e.Artemis.Event.event with
               | Artemis.Event.Adaptation_staged _
               | Artemis.Event.Adaptation_applied _
               | Artemis.Event.Adaptation_rejected _ ->
                   true
               | _ -> false)
             (Artemis.Log.events (Artemis.Device.log device))
         in
         print_endline "--- adaptations ---";
         List.iter
           (fun e -> Format.printf "%a@." Artemis.Event.pp_timed e)
           adapt_events);
      Format.printf "messages sent: %d, avgTemp: %.2f C@."
        (handles.Artemis.Health_app.sent_messages ())
        (handles.Artemis.Health_app.read_avg_temp ());
      if show_summary then begin
        print_endline "--- summary ---";
        print_endline (Artemis.Summary.render (Artemis.Device.log device))
      end;
      if show_trace then begin
        print_endline "--- trace ---";
        print_endline
          (Artemis.Log.render_timeline ~limit:trace_limit
             (Artemis.Device.log device))
      end;
      Option.iter
        (fun ((path, _) as out) ->
          Cli.finish_out ~prog out (fun oc ->
              output_string oc
                (Artemis.Export.log_to_csv (Artemis.Device.log device)));
          Printf.printf "trace CSV written to %s\n" path)
        csv;
      if show_metrics then begin
        print_endline "--- metrics ---";
        print_string (Artemis.Obs.metrics_dump obs)
      end;
      let failures = ref 0 in
      Option.iter
        (fun ((path, _) as out) ->
          let text = Artemis.Obs.trace_json obs in
          Cli.finish_out ~prog out (fun oc -> output_string oc text);
          match check_trace_json text with
          | Ok () ->
              Printf.printf "trace written to %s (valid JSON, balanced spans)\n"
                path
          | Error e ->
              Printf.eprintf "trace written to %s FAILED validation: %s\n" path e;
              incr failures)
        trace_out;
      Option.iter
        (fun ((path, _) as out) ->
          let text = Artemis.Obs.metrics_json obs in
          Cli.finish_out ~prog out (fun oc -> output_string oc text);
          match
            ( Artemis.Json.parse text,
              Artemis.Export.reconcile_metrics obs stats )
          with
          | Error e, _ ->
              Printf.eprintf "metrics written to %s FAILED validation: %s\n" path
                e;
              incr failures
          | Ok _, [] ->
              Printf.printf "metrics written to %s (reconciled with stats)\n"
                path
          | Ok _, mismatches ->
              Printf.eprintf "metrics written to %s FAILED reconciliation:\n"
                path;
              List.iter
                (fun (name, expected, got) ->
                  Printf.eprintf "  %s: stats=%d counter=%d\n" name expected got)
                mismatches;
              incr failures)
        metrics_out;
      if !failures > 0 then 1 else 0

let system_arg =
  Arg.(
    value & opt string "artemis"
    & info [ "s"; "system" ] ~docv:"SYSTEM"
        ~doc:"Runtime to use: $(b,artemis) (default) or $(b,mayfly).")

let engine_arg =
  Cli.engine
    ~doc:"Monitor execution backend (artemis runtime only): $(b,table) (the \
          default) or $(b,interpreted), the reference semantics."

let delay_arg =
  Arg.(
    value & opt int 1
    & info [ "d"; "delay" ] ~docv:"MIN"
        ~doc:"Charging delay in minutes after each power failure (default 1).")

let continuous_arg =
  Arg.(
    value & flag
    & info [ "continuous" ] ~doc:"Continuous power (no power failures).")

let temp_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "temp-base" ] ~docv:"CELSIUS"
        ~doc:"Synthetic body-temperature baseline; 39.2 triggers the \
              dpData emergency property.")

let trace_arg =
  Arg.(value & flag & info [ "t"; "trace" ] ~doc:"Print the execution trace.")

let trace_limit_arg =
  Arg.(
    value & opt int 200
    & info [ "trace-limit" ] ~docv:"N" ~doc:"Trace lines to print (default 200).")

let summary_arg =
  Arg.(
    value & flag
    & info [ "summary" ]
        ~doc:"Print per-monitor violation and per-action counts.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Write the trace as CSV to $(docv).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record spans and instants during the run and write them as \
           Chrome trace-event JSON (loadable in Perfetto) to $(docv).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Enable the metrics registry and write it as JSON to $(docv); \
           counters are cross-checked against the run statistics.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Enable the metrics registry and print a text dump after the run.")

let adapt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "adapt" ] ~docv:"FILE"
        ~doc:
          "Deliver live property updates from $(docv), a JSON array of \
           {\"at\": iteration, \"spec\"|\"machines\": source, \"remove\": \
           [names]} entries, over the simulated radio (artemis only).")

let experiment_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "experiment" ] ~docv:"NAME"
        ~doc:
          "Run an experiment sweep instead of a single simulation: \
           $(b,scalability), $(b,non-watching), $(b,harvester), \
           $(b,timekeeper) or $(b,ablation).")

let matrix_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "matrix" ] ~docv:"SCENARIO"
        ~doc:
          "Run the named faultsim scenario under every registered task-\
           execution backend (immortal, checkpoint, ink, mayfly, alpaca) \
           with the same monitors, print the differential comparison, and \
           exit 1 if any backend's verdict stream diverges from the \
           reference.")

let matrix_json_arg =
  Arg.(
    value & flag
    & info [ "matrix-json" ]
        ~doc:"Print the $(b,--matrix) report as JSON instead of a table.")

let seed_arg = Cli.seed ~doc:"Scenario seed for $(b,--matrix) runs (default 42)."

let jobs_arg =
  Cli.jobs ~prog ~default:1
    ~doc:
      "Worker domains for $(b,--experiment) sweeps (default 1; 0 means \
       auto: one worker per core).  Rows are distributed over $(docv) \
       domains; the output is identical for every job count."

let cmd =
  let doc = "simulate the health-monitoring benchmark on intermittent power" in
  Cmd.v
    (Cmd.info "artemis_sim" ~doc)
    Term.(
      const run $ system_arg $ engine_arg $ delay_arg $ continuous_arg
      $ temp_arg $ trace_arg
      $ trace_limit_arg $ summary_arg $ csv_arg $ trace_out_arg
      $ metrics_out_arg $ metrics_arg $ adapt_arg $ experiment_arg
      $ matrix_arg $ matrix_json_arg $ seed_arg $ jobs_arg)

let () = exit (Cmd.eval' cmd)
