open Artemis
module Strmap = Artemis_util.Strmap

(* --- injection sites (numbered in [Site]) --- *)

let site_count = Site.count
let sites = Array.init site_count (fun i -> Site.label (Site.of_int i))

(* Shared-mutable audit: this map is built once at module
   initialisation and is read-only afterwards, so concurrent lookups
   from worker domains are safe.  Campaign runs see sites by number;
   this serves callers that hold labels. *)
let site_ids =
  Strmap.build (List.mapi (fun i label -> (label, i)) (Array.to_list sites))

let site_id label =
  let id = Strmap.find site_ids label ~default:(-1) in
  if id < 0 then raise Not_found else id

(* --- schedules and replay lines --- *)

type schedule = (int * int) list

let add = Buffer.add_string
let add_int = Json.add_int

let add_schedule buf = function
  | [] -> Buffer.add_char buf '-'
  | entries ->
      List.iteri
        (fun i (s, o) ->
          if i > 0 then Buffer.add_char buf ',';
          add_int buf s; Buffer.add_char buf '@'; add_int buf o)
        entries

let schedule_to_string schedule =
  let buf = Buffer.create 16 in
  add_schedule buf schedule;
  Buffer.contents buf

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
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i (label, region) ->
      if i > 0 then add buf "; ";
      add buf label;
      add buf " fram="; add_int buf (Nvm.footprint nvm ~kind:Nvm.Fram ~region);
      add buf "B ram="; add_int buf (Nvm.footprint nvm ~kind:Nvm.Ram ~region);
      add buf "B cells=";
      List.iteri
        (fun j name -> if j > 0 then Buffer.add_char buf ','; add buf name)
        (Nvm.cell_names nvm ~region))
    [ ("runtime", Nvm.Runtime); ("monitor", Nvm.Monitor);
      ("application", Nvm.Application); ("staging", Nvm.Staging) ];
  Buffer.contents buf

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
      | Runtime.Stepped ev -> ignore (Suite.step_all !golden ev)
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
  (* the run records into the context its device records into *)
  let obs = Device.obs b.Scenario.device in
  Obs.incr obs m_runs;
  (* Each run's device clock restarts at zero; [Scenario.build] installed
     it as the trace clock, so the campaign span starts here. *)
  let span_begin = if Obs.tracing_enabled obs then Obs.now_us obs else 0 in
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
  let commit_after = (Site.nvm_commit_tx_after :> int) in
  let log_after = (Site.alpaca_log_after :> int) in
  let swap_after = (Site.alpaca_swap_after :> int) in
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
  let on_site (site : Site.t) =
    let id = (site :> int) in
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
        Obs.incr obs m_injected;
        let label = Site.label site in
        check_atomicity label;
        raise (Nvm.Injected_failure label)
    | _ -> ()
  in
  let result =
    Runtime.run_instrumented ~config:b.Scenario.config
      ~adaptations:b.Scenario.adaptations ~backend:b.Scenario.backend ~on_site
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
  Obs.add obs m_violations (List.length violations);
  if Obs.tracing_enabled obs then begin
    let end_us = Obs.now_us obs in
    Obs.span obs ~cat:"faultsim"
      ~args:
        [ ("seed", Obs.I seed);
          ("schedule", Obs.S (schedule_to_string schedule));
          ("outcome", Obs.S (Stats.outcome_string result.Runtime.stats)) ]
      ~begin_us:span_begin ~end_us scenario.Scenario.name;
    List.iter
      (fun v ->
        Obs.instant obs ~cat:"faultsim" ~ts:end_us
          ~args:[ ("oracle", Obs.S v.oracle); ("detail", Obs.S v.detail) ]
          "violation")
      violations;
    (* Lay sequential campaign runs end-to-end on one exported timeline,
       separated by a one-second gap. *)
    Obs.set_base obs (end_us + 1_000_000)
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

(* A schedule's text is digits, '@', ',' and '-': quoting it needs no
   escapes. *)
let add_run_json buf r =
  add buf "{\"seed\": "; add_int buf r.seed;
  add buf ", \"schedule\": \""; add_schedule buf r.schedule;
  add buf "\", \"fired\": \""; add_schedule buf r.fired;
  add buf "\", \"outcome\": "; add buf (json_string r.outcome);
  add buf ", \"power_failures\": "; add_int buf r.power_failures;
  add buf ", \"digest\": "; add buf (json_string r.digest);
  add buf ", \"hits\": [";
  Array.iteri (fun i h -> if i > 0 then add buf ", "; add_int buf h) r.hits;
  add buf "], \"violations\": [";
  List.iteri
    (fun i v ->
      if i > 0 then add buf ", ";
      add buf "{\"oracle\": "; add buf (json_string v.oracle);
      add buf ", \"detail\": "; add buf (json_string v.detail); add buf "}")
    r.violations;
  add buf "]}"

let add_list buf add_item items =
  List.iteri (fun i x -> if i > 0 then add buf ", "; add_item buf x) items

(* The report renderer writes into [buf] and calls [flush] after the
   header and after each run's row, so campaign- and fleet-scale
   reports can stream straight to an output channel: only one run's
   row is ever in memory, never the whole document. *)
let write_campaign_json buf ~flush c =
  let add_quoted buf s = add buf (json_string s) in
  add buf "{\n  \"scenario\": "; add_quoted buf c.scenario;
  add buf ",\n  \"mode\": "; add_quoted buf c.mode;
  add buf ",\n  \"depth\": "; add_int buf c.depth;
  add buf ",\n  \"campaign_seed\": "; add_int buf c.campaign_seed;
  add buf ",\n  \"sites\": ["; add_list buf add_quoted (Array.to_list sites);
  add buf "],\n  \"registered_sites\": "; add_int buf site_count;
  add buf ",\n  \"covered_sites\": ["; add_list buf add_int c.covered;
  add buf "],\n  \"coverage\": \""; add_int buf (List.length c.covered);
  Buffer.add_char buf '/'; add_int buf site_count;
  add buf "\",\n  \"baseline\": "; add_run_json buf c.baseline;
  add buf ",\n  \"runs\": [\n";
  flush ();
  let rec rows = function
    | [] -> ()
    | r :: rest ->
        add buf "    ";
        add_run_json buf r;
        add buf (match rest with [] -> "\n" | _ -> ",\n");
        flush ();
        rows rest
  in
  rows c.runs;
  add buf "  ],\n  \"total_runs\": "; add_int buf (List.length c.runs);
  add buf ",\n  \"total_violations\": "; add_int buf (total_violations c);
  add buf ",\n  \"shrunk\": ";
  (match c.shrunk with
  | None -> add buf "null"
  | Some line -> add_quoted buf line);
  add buf "\n}\n";
  flush ()

let output_campaign_json oc c =
  let buf = Buffer.create 1024 in
  write_campaign_json buf c ~flush:(fun () ->
      Buffer.output_buffer oc buf;
      Buffer.clear buf)

let campaign_to_json c =
  let buf = Buffer.create 4096 in
  write_campaign_json buf c ~flush:ignore;
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
