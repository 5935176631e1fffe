open Artemis
module Strmap = Artemis_util.Strmap

(* --- injection sites (Nvm numbering first, then Runtime, then the
   Alpaca two-phase-commit windows appended by PR 10 so the historic
   numbering [0,19] stays stable) --- *)

let sites =
  Array.of_list
    (Nvm.injection_sites @ Runtime.injection_sites @ Alpaca.injection_sites)
let site_count = Array.length sites

(* Shared-mutable audit: this map is built once at module
   initialisation and is read-only afterwards, so concurrent lookups
   from worker domains are safe.  Every probe hit resolves its label
   here, so the lookup must not allocate or hash the whole label. *)
let site_ids =
  Strmap.build (List.mapi (fun i label -> (label, i)) (Array.to_list sites))

let site_id label =
  let id = Strmap.find site_ids label ~default:(-1) in
  if id < 0 then raise Not_found else id

(* --- schedules and replay lines --- *)

type schedule = (int * int) list

let schedule_to_string = function
  | [] -> "-"
  | entries ->
      String.concat ","
        (List.map (fun (s, o) -> Printf.sprintf "%d@%d" s o) entries)

let schedule_of_string text =
  if text = "-" || text = "" then Ok []
  else
    let parse_entry e =
      match String.split_on_char '@' e with
      | [ s; o ] -> (
          match (int_of_string_opt s, int_of_string_opt o) with
          | Some s, Some o when s >= 0 && s < site_count && o >= 0 ->
              Ok (s, o)
          | Some s, Some _ when s < 0 || s >= site_count ->
              Error (Printf.sprintf "site %d out of range [0,%d]" s (site_count - 1))
          | _ -> Error (Printf.sprintf "malformed entry %S" e))
      | _ -> Error (Printf.sprintf "malformed entry %S (want site@occurrence)" e)
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | e :: rest -> (
          match parse_entry e with
          | Ok entry -> go (entry :: acc) rest
          | Error _ as err -> err)
    in
    go [] (String.split_on_char ',' text)

let replay_line ~seed schedule =
  Printf.sprintf "%d:%s" seed (schedule_to_string schedule)

let parse_replay line =
  match String.index_opt line ':' with
  | None -> Error "malformed replay line (want <seed>:<schedule>)"
  | Some i -> (
      let seed_text = String.sub line 0 i in
      let sched_text = String.sub line (i + 1) (String.length line - i - 1) in
      match int_of_string_opt seed_text with
      | None -> Error (Printf.sprintf "malformed seed %S" seed_text)
      | Some seed ->
          Result.map (fun s -> (seed, s)) (schedule_of_string sched_text))

(* --- single runs --- *)

type violation = { oracle : string; detail : string }

type run_result = {
  seed : int;
  schedule : schedule;
  fired : (int * int) list;
  hits : int array;
  outcome : string;
  power_failures : int;
  digest : string;
  footprint : string;
  violations : violation list;
}

let fingerprint nvm =
  [ ("runtime", Nvm.Runtime); ("monitor", Nvm.Monitor);
    ("application", Nvm.Application); ("staging", Nvm.Staging) ]
  |> List.map (fun (label, region) ->
         Printf.sprintf "%s fram=%dB ram=%dB cells=%s" label
           (Nvm.footprint nvm ~kind:Nvm.Fram ~region)
           (Nvm.footprint nvm ~kind:Nvm.Ram ~region)
           (String.concat "," (Nvm.cell_names nvm ~region)))
  |> String.concat "; "

let pp_val v = Format.asprintf "%a" Fsm.Ast.pp_value v

(* Oracle 2: golden re-execution.  Replay the journal of committed
   monitor calls (plus the committed prefix of an in-flight one) against
   a pristine suite on a fresh store; the monitors' FRAM must match.
   [Adapted] entries re-run the update through a fresh adaptation
   manager at the exact journal point, so the comparison target is the
   run's {e final} suite, whichever generation that is. *)
let golden_violations (b : Scenario.built) (result : Runtime.instrumented) =
  let violations = ref [] in
  let report detail =
    violations := { oracle = "golden-reexecution"; detail } :: !violations
  in
  let gnvm = Nvm.create () in
  let golden0 = Suite.of_tables gnvm b.Scenario.tables in
  Suite.hard_reset golden0;
  let manager = Adapt.create gnvm ~app:b.Scenario.app golden0 in
  let golden = ref golden0 in
  List.iter
    (function
      | Runtime.Stepped ev -> ignore (Suite.step_all_unindexed !golden ev)
      | Runtime.Reinited tasks -> Suite.reinit_for_tasks !golden ~tasks
      | Runtime.Adapted { id; generation } -> (
          match
            List.find_opt
              (fun (_, (u : Adapt.update)) -> u.Adapt.id = id)
              b.Scenario.adaptations
          with
          | None ->
              report
                (Printf.sprintf "journaled update %d is not in the scenario" id)
          | Some (_, u) -> (
              ignore (Adapt.stage manager u);
              match Adapt.apply manager with
              | Adapt.Applied a when a.Adapt.generation = generation ->
                  golden := Adapt.active manager
              | Adapt.Applied a ->
                  report
                    (Printf.sprintf
                       "golden re-apply of update %d reached generation %d, \
                        journal says %d"
                       id a.Adapt.generation generation)
              | Adapt.Idle | Adapt.Rejected _ ->
                  report
                    (Printf.sprintf "golden re-apply of update %d diverged" id))))
    result.Runtime.journal;
  (match result.Runtime.partial with
  | None -> ()
  | Some (ev, pc) ->
      List.iteri
        (fun i m -> if i < pc then ignore (Monitor.step m ev))
        (Suite.monitors !golden));
  let actual_monitors = Suite.monitors result.Runtime.final_suite in
  let golden_monitors = Suite.monitors !golden in
  let names ms = String.concat "," (List.map Monitor.name ms) in
  if
    List.length actual_monitors <> List.length golden_monitors
    || not
         (List.for_all2
            (fun a g -> String.equal (Monitor.name a) (Monitor.name g))
            actual_monitors golden_monitors)
  then
    report
      (Printf.sprintf "torn suite: deployed [%s], golden [%s]"
         (names actual_monitors) (names golden_monitors))
  else
    List.iter2
      (fun actual gold ->
        let name = Monitor.name actual in
        let sa = Monitor.current_state actual and sg = Monitor.current_state gold in
        if sa <> sg then
          report (Printf.sprintf "%s: state %s, golden %s" name sa sg);
        List.iter
          (fun (vd : Fsm.Ast.var_decl) ->
            let va = Monitor.read_var actual vd.Fsm.Ast.var_name in
            let vg = Monitor.read_var gold vd.Fsm.Ast.var_name in
            if not (Fsm.Ast.same_value va vg) then
              report
                (Printf.sprintf "%s.%s: %s, golden %s" name vd.Fsm.Ast.var_name
                   (pp_val va) (pp_val vg)))
          (Monitor.machine actual).Fsm.Ast.vars)
      actual_monitors golden_monitors;
  List.rev !violations

(* Oracle 5 (PR 4): every scheduled update applies exactly once - at
   most one Adaptation_applied event per id ever, never a device-side
   rejection of a valid scenario update, and exactly one application in
   a run that completed. *)
let adaptation_violations (b : Scenario.built) (result : Runtime.instrumented)
    log =
  if b.Scenario.adaptations = [] then []
  else begin
    let violations = ref [] in
    let report detail =
      violations := { oracle = "update-exactly-once"; detail } :: !violations
    in
    let completed = result.Runtime.stats.Stats.outcome = Stats.Completed in
    List.iter
      (fun (_, (u : Adapt.update)) ->
        let applied =
          Log.count log (function
            | Event.Adaptation_applied { id; _ } -> id = u.Adapt.id
            | _ -> false)
        in
        let rejected =
          Log.count log (function
            | Event.Adaptation_rejected { id; _ } -> id = u.Adapt.id
            | _ -> false)
        in
        if applied > 1 then
          report (Printf.sprintf "update %d applied %d times" u.Adapt.id applied);
        if rejected > 0 then
          report
            (Printf.sprintf "update %d rejected by on-device validation"
               u.Adapt.id);
        if applied = 0 && completed then
          report
            (Printf.sprintf "update %d never applied in a completed run"
               u.Adapt.id))
      b.Scenario.adaptations;
    List.rev !violations
  end

(* Oracle 3: every corrective action in the trace must be justified by at
   least one monitor verdict recorded after the previous action - a
   reboot may retry a verdict (fresh verdicts re-appear) but may never
   re-apply a stale one. *)
let action_violations log =
  let fresh = ref 0 and violations = ref [] in
  List.iter
    (fun (e : Event.timed) ->
      match e.Event.event with
      | Event.Monitor_verdict _ -> incr fresh
      | Event.Runtime_action { action; task } ->
          if !fresh = 0 then
            violations :=
              {
                oracle = "action-at-most-once";
                detail =
                  Printf.sprintf "action %s on %s without a fresh verdict"
                    action task;
              }
              :: !violations
          else fresh := 0
      | _ -> ())
    (Log.events log);
  List.rev !violations

(* Oracle 6 (PR 7): input freshness.  The scenario's tracker audited
   every consumer start/commit as the run recorded events; harvest its
   violations.  Trackers are per-build, so parallel campaign runs stay
   independent and the report byte-identical for every --jobs. *)
let freshness_violations (b : Scenario.built) =
  match b.Scenario.freshness with
  | None -> []
  | Some tracker ->
      let budget = Consistency.Freshness.budget tracker in
      List.map
        (fun v ->
          {
            oracle = "input-freshness";
            detail = Consistency.Freshness.violation_to_string budget v;
          })
        (Consistency.Freshness.violations tracker)

let m_runs = Obs.counter "faultsim_runs"
let m_injected = Obs.counter "faultsim_injected"
let m_violations = Obs.counter "faultsim_violations"

let run_schedule (scenario : Scenario.t) ~seed schedule =
  let b = scenario.Scenario.build ~engine:None ~seed in
  Obs.incr m_runs;
  (* Each run's device clock restarts at zero; [Scenario.build] installed
     it as the trace clock, so the campaign span starts here. *)
  let span_begin = if Obs.tracing_enabled () then Obs.now_us () else 0 in
  let nvm = Device.nvm b.Scenario.device in
  let hits = Array.make site_count 0 in
  let since = Array.make site_count 0 in
  let remaining = ref schedule in
  let fired = ref [] in
  let violations = ref [] in
  (* Oracle 1 state: the committed application region as of the last
     commit point.  Updated at every commit, checked at every injected
     crash: a mid-transaction crash must not have moved it.  The Alpaca
     two-phase protocol (PR 10) opens a second legitimate window: from
     the instant the commit log seals ([alpaca.log.after]) the run may
     also be in the {e promised} post-state - the sealed write set
     captured logically (pending views included) at the seal - and in
     nothing else until the swap publishes it ([alpaca.swap.after]). *)
  let app_committed = ref (Nvm.snapshot_region nvm ~region:Nvm.Application) in
  let commit_after = site_id "nvm.commit_tx.after" in
  let log_after = site_id "alpaca.log.after" in
  let swap_after = site_id "alpaca.swap.after" in
  let sealed = ref false in
  let promised = ref [] in
  let changed_cells ~against now =
    List.filter_map
      (fun (name, digest) ->
        match List.assoc_opt name against with
        | Some d when d = digest -> None
        | _ -> Some name)
      now
  in
  let check_atomicity label =
    let now = Nvm.snapshot_region nvm ~region:Nvm.Application in
    if now = !app_committed then ()
    else if !sealed && now = !promised then
      (* the sealed two-phase commit landed between checks *)
      app_committed := now
    else
      violations :=
        {
          oracle = "task-atomicity";
          detail =
            Printf.sprintf
              "committed app cells changed outside a commit at %s: %s" label
              (String.concat "," (changed_cells ~against:!app_committed now));
        }
        :: !violations
  in
  let probe label =
    let id = site_id label in
    hits.(id) <- hits.(id) + 1;
    let occ = since.(id) in
    since.(id) <- occ + 1;
    if id = commit_after then
      app_committed := Nvm.snapshot_region nvm ~region:Nvm.Application
    else if id = log_after then begin
      (* a new log can only seal after the previous one published *)
      if !sealed then app_committed := !promised;
      promised := Nvm.snapshot_region_logical nvm ~region:Nvm.Application;
      sealed := true
    end
    else if id = swap_after then begin
      let now = Nvm.snapshot_region nvm ~region:Nvm.Application in
      if !sealed && now <> !promised then
        violations :=
          {
            oracle = "task-atomicity";
            detail =
              Printf.sprintf
                "two-phase commit published a torn write set: %s"
                (String.concat "," (changed_cells ~against:!promised now));
          }
          :: !violations;
      app_committed := now;
      sealed := false
    end;
    match !remaining with
    | (s, o) :: rest when s = id && o = occ ->
        remaining := rest;
        Array.fill since 0 site_count 0;
        fired := (s, o) :: !fired;
        Obs.incr m_injected;
        check_atomicity label;
        raise (Nvm.Injected_failure label)
    | _ -> ()
  in
  let result =
    Runtime.run_instrumented ~config:b.Scenario.config
      ~adaptations:b.Scenario.adaptations ~backend:b.Scenario.backend ~probe
      b.Scenario.device b.Scenario.app b.Scenario.suite
  in
  check_atomicity "end-of-run";
  let violations =
    List.rev !violations
    @ golden_violations b result
    @ action_violations (Device.log b.Scenario.device)
    @ adaptation_violations b result (Device.log b.Scenario.device)
    @ freshness_violations b
  in
  Obs.add m_violations (List.length violations);
  if Obs.tracing_enabled () then begin
    let end_us = Obs.now_us () in
    Obs.span ~cat:"faultsim"
      ~args:
        [ ("seed", Obs.I seed);
          ("schedule", Obs.S (schedule_to_string schedule));
          ("outcome", Obs.S (Stats.outcome_string result.Runtime.stats)) ]
      ~begin_us:span_begin ~end_us scenario.Scenario.name;
    List.iter
      (fun v ->
        Obs.instant ~cat:"faultsim" ~ts:end_us
          ~args:[ ("oracle", Obs.S v.oracle); ("detail", Obs.S v.detail) ]
          "violation")
      violations;
    (* Lay sequential campaign runs end-to-end on one exported timeline,
       separated by a one-second gap. *)
    Obs.set_base (end_us + 1_000_000)
  end;
  {
    seed;
    schedule;
    fired = List.rev !fired;
    hits;
    outcome = Stats.outcome_string result.Runtime.stats;
    power_failures = result.Runtime.stats.Stats.power_failures;
    digest = Export.log_digest (Device.log b.Scenario.device);
    footprint = fingerprint nvm;
    violations;
  }

(* --- campaigns --- *)

type campaign = {
  scenario : string;
  mode : string;
  depth : int;
  campaign_seed : int;
  baseline : run_result;
  runs : run_result list;
  covered : int list;
  shrunk : string option;
}

(* Oracle 4: a crashed-and-recovered run must end with exactly the
   persistent cells of the uninjected baseline. *)
let check_footprint baseline r =
  if r.footprint = baseline.footprint then r
  else
    {
      r with
      violations =
        r.violations
        @ [
            {
              oracle = "stable-footprint";
              detail =
                Printf.sprintf "footprint diverged from baseline: %s (baseline %s)"
                  r.footprint baseline.footprint;
            };
          ];
    }

let coverage runs =
  let hit = Array.make site_count false in
  List.iter (fun r -> List.iter (fun (s, _) -> hit.(s) <- true) r.fired) runs;
  Array.to_list hit
  |> List.mapi (fun i b -> if b then Some i else None)
  |> List.filter_map Fun.id

let total_violations c =
  List.fold_left (fun acc r -> acc + List.length r.violations) 0 c.runs
  + List.length c.baseline.violations

let violating r = r.violations <> []

(* Greedy shrink: drop schedule entries while the violation persists,
   then lower occurrence counts toward 0. *)
let shrink still schedule =
  let rec remove_pass s =
    let rec try_each prefix = function
      | [] -> None
      | x :: rest ->
          let candidate = List.rev_append prefix rest in
          if candidate <> [] && still candidate then Some candidate
          else try_each (x :: prefix) rest
    in
    match try_each [] s with Some s' -> remove_pass s' | None -> s
  in
  let rec occ_pass s =
    let rec try_each prefix = function
      | [] -> None
      | (site, o) :: rest when o > 0 ->
          let candidate = List.rev_append prefix ((site, o - 1) :: rest) in
          if still candidate then Some candidate
          else try_each ((site, o) :: prefix) rest
      | x :: rest -> try_each (x :: prefix) rest
    in
    match try_each [] s with Some s' -> occ_pass s' | None -> s
  in
  occ_pass (remove_pass schedule)

let shrink_first_violation scenario baseline runs =
  match List.find_opt violating runs with
  | None -> None
  | Some bad ->
      let still s =
        violating
          (check_footprint baseline (run_schedule scenario ~seed:bad.seed s))
      in
      let minimal = if still bad.schedule then shrink still bad.schedule else bad.schedule in
      Some (replay_line ~seed:bad.seed minimal)

(* Runs fan out through [Obs.par_map], which absorbs a recording
   campaign's per-run contexts in run-id order: with the one-second gap
   [run_schedule] leaves after each traced run, the merged trace is
   byte-identical for every [jobs] value. *)

let run_schedules ~jobs scenario ~baseline ~n plan =
  Obs.par_map ~jobs n (fun i ->
      let seed, schedule = plan i in
      run_schedule scenario ~seed schedule)
  |> Array.to_list
  |> List.map (check_footprint baseline)

let exhaustive ?(jobs = 1) scenario ~seed ~depth =
  if depth < 1 then invalid_arg "Faultsim.exhaustive: depth must be positive";
  if jobs < 1 then invalid_arg "Faultsim.exhaustive: jobs must be positive";
  let baseline = run_schedule scenario ~seed [] in
  (* Depth 1 is complete over dynamic instants: the baseline run tells us
     how often each site fires, and we crash once at every single
     occurrence (the pre-injection trajectory equals the baseline's, so
     the occurrence grid is exact).  Deeper levels chain additional
     first-hit (occurrence 0) failures onto each level-1 instant - full
     occurrence grids would be quadratic in trace length per level. *)
  let level1 =
    List.concat
      (List.init site_count (fun s ->
           List.init baseline.hits.(s) (fun o -> [ (s, o) ])))
  in
  let rec deepen d schedules =
    if d <= 1 then schedules
    else
      deepen (d - 1)
        (List.concat_map
           (fun sched ->
             List.init site_count (fun s -> sched @ [ (s, 0) ]))
           schedules)
  in
  let schedules =
    Array.of_list (List.concat (List.init depth (fun d -> deepen (d + 1) level1)))
  in
  let runs =
    run_schedules ~jobs scenario ~baseline ~n:(Array.length schedules)
      (fun i -> (seed, schedules.(i)))
  in
  {
    scenario = scenario.Scenario.name;
    mode = "exhaustive";
    depth;
    campaign_seed = seed;
    baseline;
    runs;
    covered = coverage runs;
    shrunk = shrink_first_violation scenario baseline runs;
  }

let random_campaign ?(jobs = 1) scenario ~seed ~runs ~max_depth =
  if runs < 1 then invalid_arg "Faultsim.random_campaign: runs must be positive";
  if max_depth < 1 then
    invalid_arg "Faultsim.random_campaign: max_depth must be positive";
  if jobs < 1 then invalid_arg "Faultsim.random_campaign: jobs must be positive";
  let prng = Prng.create ~seed in
  let baseline = run_schedule scenario ~seed [] in
  (* Run [i]'s plan comes from a child PRNG split off the campaign
     generator at index [i]: a pure function of (seed, i), so the plan a
     given run id gets is independent of [jobs] - and nothing is drawn
     sequentially up front, so fan-out starts immediately and the
     campaign never materialises all schedules at once. *)
  let plan i =
    let p = Prng.split prng ~index:i in
    let run_seed = Prng.int_range p ~lo:0 ~hi:(1 lsl 30) in
    let depth = Prng.int_range p ~lo:1 ~hi:max_depth in
    let schedule =
      List.init depth (fun _ ->
          ( Prng.int_range p ~lo:0 ~hi:(site_count - 1),
            Prng.int_range p ~lo:0 ~hi:12 ))
    in
    (run_seed, schedule)
  in
  let results = run_schedules ~jobs scenario ~baseline ~n:runs plan in
  {
    scenario = scenario.Scenario.name;
    mode = "random";
    depth = max_depth;
    campaign_seed = seed;
    baseline;
    runs = results;
    covered = coverage results;
    shrunk = shrink_first_violation scenario baseline results;
  }

let replay scenario ~line =
  match parse_replay line with
  | Error _ as err -> err
  | Ok (seed, schedule) ->
      let baseline = run_schedule scenario ~seed [] in
      let first = check_footprint baseline (run_schedule scenario ~seed schedule) in
      let second = run_schedule scenario ~seed schedule in
      Ok (first, first.digest = second.digest)

(* One fresh run per campaign run, footprint-checked against the same
   baseline, must rebuild exactly the record the report was built from. *)
let unreproducible ?(jobs = 1) scenario c =
  if jobs < 1 then invalid_arg "Faultsim.unreproducible: jobs must be positive";
  let runs = Array.of_list c.runs in
  let again =
    run_schedules ~jobs scenario ~baseline:c.baseline ~n:(Array.length runs)
      (fun i -> (runs.(i).seed, runs.(i).schedule))
  in
  List.filter_map Fun.id
    (List.map2 (fun r fresh -> if fresh = r then None else Some r) c.runs again)

(* --- reports --- *)

let json_string = Json.quote

let run_to_json r =
  Printf.sprintf
    "{\"seed\": %d, \"schedule\": %s, \"fired\": %s, \"outcome\": %s, \
     \"power_failures\": %d, \"digest\": %s, \"hits\": [%s], \
     \"violations\": [%s]}"
    r.seed
    (json_string (schedule_to_string r.schedule))
    (json_string (schedule_to_string r.fired))
    (json_string r.outcome) r.power_failures (json_string r.digest)
    (String.concat ", " (Array.to_list (Array.map string_of_int r.hits)))
    (String.concat ", "
       (List.map
          (fun v ->
            Printf.sprintf "{\"oracle\": %s, \"detail\": %s}"
              (json_string v.oracle) (json_string v.detail))
          r.violations))

(* The report renderer is written against a string sink so campaign-
   and fleet-scale reports can stream straight to an output channel:
   only one run's row is ever in memory, never the whole document. *)
let write_campaign_json ~emit c =
  let add fmt = Printf.ksprintf emit fmt in
  add "{\n";
  add "  \"scenario\": %s,\n" (json_string c.scenario);
  add "  \"mode\": %s,\n" (json_string c.mode);
  add "  \"depth\": %d,\n" c.depth;
  add "  \"campaign_seed\": %d,\n" c.campaign_seed;
  add "  \"sites\": [%s],\n"
    (String.concat ", " (Array.to_list (Array.map json_string sites)));
  add "  \"registered_sites\": %d,\n" site_count;
  add "  \"covered_sites\": [%s],\n"
    (String.concat ", " (List.map string_of_int c.covered));
  add "  \"coverage\": \"%d/%d\",\n" (List.length c.covered) site_count;
  add "  \"baseline\": %s,\n" (run_to_json c.baseline);
  add "  \"runs\": [\n";
  let last = List.length c.runs - 1 in
  List.iteri
    (fun i r -> add "    %s%s\n" (run_to_json r) (if i = last then "" else ","))
    c.runs;
  add "  ],\n";
  add "  \"total_runs\": %d,\n" (List.length c.runs);
  add "  \"total_violations\": %d,\n" (total_violations c);
  add "  \"shrunk\": %s\n"
    (match c.shrunk with None -> "null" | Some line -> json_string line);
  add "}\n"

let output_campaign_json oc c = write_campaign_json ~emit:(output_string oc) c

let campaign_to_json c =
  let buf = Buffer.create 4096 in
  write_campaign_json ~emit:(Buffer.add_string buf) c;
  Buffer.contents buf

let campaign_summary c =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "scenario %s: %d injection sites\n" c.scenario site_count;
  add "baseline: %s, %d violations\n" c.baseline.outcome
    (List.length c.baseline.violations);
  add "%s (depth %d): %d runs, coverage %d/%d, %d violations\n" c.mode c.depth
    (List.length c.runs) (List.length c.covered) site_count
    (total_violations c);
  (match c.shrunk with
  | None -> ()
  | Some line -> add "minimal reproducer: %s\n" line);
  Buffer.contents buf
