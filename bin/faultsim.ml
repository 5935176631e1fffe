(* faultsim: deterministic power-failure fault-injection campaigns over
   the simulated ARTEMIS runtime, with invariant oracles and one-line
   replay of any failing schedule. *)

open Cmdliner

let prog = "faultsim"
module F = Artemis_faultsim.Faultsim
module Scenario = Artemis_faultsim.Scenario

let list_sites () =
  Array.iteri (Printf.printf "%2d %s\n") F.sites;
  0

let verify_replays ~jobs scenario campaign =
  (* Determinism check: every run's reproducer line must rebuild the
     record the report was built from. *)
  let bad = F.unreproducible ~jobs scenario campaign in
  List.iter
    (fun (r : F.run_result) ->
      Printf.printf "NOT REPRODUCIBLE: %s\n"
        (F.replay_line ~seed:r.F.seed r.F.schedule))
    bad;
  bad = []

let print_violations campaign =
  List.iter
    (fun (r : F.run_result) ->
      List.iter
        (fun (v : F.violation) ->
          Printf.printf "VIOLATION [%s] %s (replay %s)\n" v.F.oracle v.F.detail
            (F.replay_line ~seed:r.F.seed r.F.schedule))
        r.F.violations)
    (campaign.F.baseline :: campaign.F.runs)

let campaign ~jobs scenario engine depth random max_depth seed replay json
    skip_verify =
  let scenario =
    match engine with
    | None -> scenario
    | Some e -> Scenario.with_engine e scenario
  in
  match replay with
  | Some line -> (
      match F.replay scenario ~line with
      | Error msg ->
          Printf.eprintf "bad replay line: %s\n" msg;
          2
      | Ok (result, reproducible) ->
          Printf.printf "replay %s: %s, %d violations, %s\n" line
            result.F.outcome
            (List.length result.F.violations)
            (if reproducible then "reproducible" else "NOT REPRODUCIBLE");
          List.iter
            (fun (v : F.violation) ->
              Printf.printf "VIOLATION [%s] %s\n" v.F.oracle v.F.detail)
            result.F.violations;
          if result.F.violations = [] && reproducible then 0 else 1)
  | None ->
      let campaign =
        match random with
        | Some runs -> F.random_campaign ~jobs scenario ~seed ~runs ~max_depth
        | None -> F.exhaustive ~jobs scenario ~seed ~depth
      in
      if json then F.output_campaign_json stdout campaign
      else begin
        print_string (F.campaign_summary campaign);
        print_violations campaign
      end;
      (* --trace-out records the campaign, not its verification *)
      Artemis.Obs.set_tracing false;
      let reproducible =
        skip_verify || verify_replays ~jobs scenario campaign
      in
      if
        F.total_violations campaign = 0
        && campaign.F.baseline.F.violations = []
        && reproducible
      then 0
      else 1

let find_scenario name = Result.map Option.some (Scenario.lookup name)

let run scenario_name engine list depth random max_depth seed replay json
    skip_verify trace_out jobs =
  (* Usage errors exit before the trace writer is installed, so a
     rejected invocation never creates or overwrites --trace-out. *)
  match
    ( Artemis.Par.jobs_of_flag ~prog jobs,
      if list then Ok None else find_scenario scenario_name )
  with
  | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      2
  | Ok jobs, Ok scenario ->
      (* opened before the campaign runs, so a bad path fails fast *)
      let trace =
        Option.map (fun path -> (path, Cli.open_out ~prog path)) trace_out
      in
      Artemis.Obs.reset ();
      Artemis.Obs.set_tracing (trace <> None);
      let code =
        match scenario with
        | None -> list_sites ()
        | Some scenario ->
            campaign ~jobs scenario engine depth random max_depth seed replay
              json skip_verify
      in
      (match trace with
      | None -> ()
      | Some (path, oc) ->
          Cli.finish_out ~prog path oc (fun oc ->
              output_string oc (Artemis.Obs.trace_json ()));
          Printf.eprintf "trace written to %s\n" path);
      code

let scenario_arg =
  Arg.(
    value & opt string "quickstart"
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:"Scenario to inject into: $(b,quickstart), $(b,health), their \
              live-adaptation variants $(b,quickstart-adapt) and \
              $(b,health-adapt), the freshness-budgeted \
              $(b,quickstart-fresh), or the deliberately buggy \
              $(b,stale-read) and $(b,war-buggy).")

let engine_arg =
  Cli.engine
    ~doc:"Monitor execution backend for the campaign: $(b,table) (the \
          default) or $(b,interpreted), the reference semantics. All oracles \
          must hold under every engine."

let list_arg =
  Arg.(
    value & flag
    & info [ "list-sites" ] ~doc:"Print the numbered injection sites and exit.")

let depth_arg =
  Arg.(
    value & opt int 1
    & info [ "depth" ] ~docv:"K"
        ~doc:"Bounded-exhaustive depth: up to $(docv) injected failures per run.")

let random_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "random" ] ~docv:"N"
        ~doc:"Run $(docv) seeded random schedules instead of the exhaustive \
              campaign.")

let max_depth_arg =
  Arg.(
    value & opt int 3
    & info [ "max-depth" ] ~docv:"K"
        ~doc:"Maximum failures per random schedule (default 3).")

let seed_arg = Cli.seed ~doc:"Campaign seed (default 42)."

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"LINE"
        ~doc:"Replay one schedule, e.g. $(b,42:3@0,7@2); runs it twice and \
              checks the traces are byte-identical.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the full campaign report as JSON.")

let skip_verify_arg =
  Arg.(
    value & flag
    & info [ "skip-replay-check" ]
        ~doc:"Skip the per-run replay determinism verification.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the campaign as Chrome trace-event JSON to $(docv): one \
           span per run (laid end-to-end on a shared timeline) with \
           instant events at each oracle violation.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Fan campaign runs, and the replay check's re-runs, out over \
           $(docv) domains (default 1); 0 means auto: one worker per core. \
           The report and any exported trace are byte-identical for every \
           $(docv).")

let cmd =
  let doc =
    "deterministic power-failure fault injection with invariant oracles"
  in
  Cmd.v
    (Cmd.info "faultsim" ~doc)
    Term.(
      const run $ scenario_arg $ engine_arg $ list_arg $ depth_arg $ random_arg
      $ max_depth_arg $ seed_arg $ replay_arg $ json_arg $ skip_verify_arg
      $ trace_out_arg $ jobs_arg)

let () = exit (Cmd.eval' cmd)
