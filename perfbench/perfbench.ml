(* Workload driver of the benchmark of record (see README.md).

   run.py builds this executable and starts it once per measurement.
   [--mode setup] stops right before the first timed operation, [run]
   repeats the untraced workload for [--seconds], and [trace] runs the
   workload once untraced and once split across layers.  The last stdout
   line is one JSON object of raw results; run.py turns it into the
   metrics BENCHMARK.json names.

   Everything is timed from outside the library: calls into public entry
   points, plus the two public hooks that reach inside a run, the
   [~probe] callback of [Runtime.run_instrumented] and
   [Fleet.run ~on_progress]. *)

open Artemis
module F = Artemis_faultsim.Faultsim
module Scenario = Artemis_faultsim.Scenario

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let ratio a b = if b = 0. then 0. else a /. b
let fl = float_of_int
let sum = List.fold_left ( + ) 0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank, as Fleet.percentile. *)
let percentile q samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. fl n)) - 1)))

(* ---------- inputs ---------- *)

type campaign = { scenario : Scenario.t; depth : int; replays : bool }

type workload = Campaigns of campaign list | Fleet_mix of Fleet.spec

type size = Full | Tiny

let find_scenario name =
  match Scenario.find name with
  | Some s -> s
  | None -> failwith ("unknown scenario " ^ name)

let fleet_spec_json ~seed_first ~count =
  Printf.sprintf
    {|{"name": "fleet-mix",
       "scenarios": ["quickstart", "health", "health-adapt"],
       "seeds": {"first": %d, "count": %d},
       "harvesters": ["default", "fixed:30s", "duty:200uw", "constant:65uw"],
       "engines": ["default"],
       "backends": ["immortal", "checkpoint", "ink", "mayfly", "alpaca"]}|}
    seed_first count

(* Inputs are a pure function of (workload, seed, size).  The campaign
   scenario seed is [seed]; fleet device seeds start at [seed * count],
   so two seeds never share a device.  [Tiny] keeps every code path at a
   size the self-test can afford: quickstart stands in for health, and
   depth 1 for depth 2. *)
let make_workload name ~seed ~size =
  match name with
  | "faultsim-health-d1" ->
      let scenario =
        find_scenario (match size with Full -> "health" | Tiny -> "quickstart")
      in
      Campaigns [ { scenario; depth = 1; replays = false } ]
  | "faultsim-quick-d2" ->
      let depth = match size with Full -> 2 | Tiny -> 1 in
      Campaigns
        (List.map
           (fun name -> { scenario = find_scenario name; depth; replays = true })
           [ "quickstart"; "quickstart-alpaca" ])
  | "fleet-mix" -> (
      let count = match size with Full -> 160 | Tiny -> 1 in
      match Fleet.spec_of_json (fleet_spec_json ~seed_first:(seed * count) ~count) with
      | Ok spec -> Fleet_mix spec
      | Error msg -> failwith ("fleet spec: " ^ msg))
  | other -> failwith ("unknown workload " ^ other)

(* ---------- operations and checks ---------- *)

(* Failed operations: campaign runs with an oracle violation, replay lines
   that do not reproduce, reports whose digest differs from the
   reference, and a jobs-1 fleet report that differs from the jobs-nproc
   one.  [problems] are the failures that make the outputs incorrect:
   all of them except oracle violations, which the reference digests
   record as the simulated system's own behaviour. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let tally = { attempted = 0; failed = 0; problems = [] }
let problem what = tally.problems <- what :: tally.problems

let operation ~ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1

(* Reference digests arrive as --expect KEY=HEX; with none given (tiny
   runs, recording) reports are digested but not judged. *)
let expected : (string * string) list ref = ref []
let digests : (string * string) list ref = ref []

let check_digest key hex =
  if not (List.mem_assoc key !digests) then digests := !digests @ [ (key, hex) ];
  if !expected <> [] then
    match List.assoc_opt key !expected with
    | Some want when want = hex -> operation ~ok:true
    | Some want ->
        operation ~ok:false;
        problem (Printf.sprintf "%s report digest %s, reference %s" key hex want)
    | None ->
        operation ~ok:false;
        problem (Printf.sprintf "no reference digest for %s" key)

let null_sink = lazy (open_out_bin "/dev/null")

let to_null write =
  let oc = Lazy.force null_sink in
  write oc;
  flush oc

(* MD5 of whatever [write] streams, read back through a pipe. *)
let digest_output write =
  let r, w = Unix.pipe ~cloexec:true () in
  let reader =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr r in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Digest.channel ic (-1)))
  in
  let oc = Unix.out_channel_of_descr w in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc);
  Digest.to_hex (Domain.join reader)

(* ---------- the untraced workloads ---------- *)

let reproducible scenario (r : F.run_result) =
  match F.replay scenario ~line:(F.replay_line ~seed:r.F.seed r.F.schedule) with
  | Ok (_, same) -> same
  | Error _ -> false

(* One campaign as the faultsim CLI runs it at jobs 1: exhaustive, the
   JSON report streamed to a null sink, then - where the CLI does it by
   default - the per-run replay verification.  Returns the campaign and
   the ns of each of these timed spans.  Checks run outside them. *)
let run_campaign ~seed c =
  let camp, t_campaign =
    timed (fun () -> F.exhaustive ~jobs:1 c.scenario ~seed ~depth:c.depth)
  in
  let (), t_report = timed (fun () -> to_null (fun oc -> F.output_campaign_json oc camp)) in
  let replayed, t_replay =
    if c.replays then timed (fun () -> List.map (reproducible c.scenario) camp.F.runs)
    else ([], 0)
  in
  List.iter
    (fun (r : F.run_result) -> operation ~ok:(r.F.violations = []))
    (camp.F.baseline :: camp.F.runs);
  if c.replays then
    List.iter2
      (fun (r : F.run_result) ok ->
        operation ~ok;
        if not ok then
          problem ("not reproducible: " ^ F.replay_line ~seed:r.F.seed r.F.schedule))
      camp.F.runs replayed;
  check_digest c.scenario.Scenario.name
    (Digest.to_hex (Digest.string (F.campaign_to_json camp)));
  (camp, if c.replays then [ t_campaign; t_report; t_replay ] else [ t_campaign; t_report ])

let nproc = Par.recommended_jobs ()

let run_fleet ?on_progress ~jobs spec =
  let report, t_run = timed (fun () -> Fleet.run ?on_progress ~jobs spec) in
  let (), t_report = timed (fun () -> to_null (fun oc -> Fleet.output_report_json oc report)) in
  (* every device is an operation; none can fail on its own *)
  tally.attempted <- tally.attempted + Array.length report.Fleet.devices;
  (report, t_run, t_report)

(* The per-device array is in the digest: every simulated statistic of
   every device must stay identical, not just the roll-ups. *)
let fleet_digest report =
  digest_output (fun oc -> Fleet.output_report_json ~devices:true oc report)

(* One iteration of the workload: its runs or devices, and the ns of
   each timed span in it. *)
let iteration ~seed = function
  | Campaigns cs ->
      let parts =
        List.map
          (fun c ->
            let camp, spans = run_campaign ~seed c in
            (List.length camp.F.runs, spans))
          cs
      in
      (sum (List.map fst parts), List.concat_map snd parts)
  | Fleet_mix spec ->
      let report, t_run, t_report = run_fleet ~jobs:nproc spec in
      check_digest "fleet" (fleet_digest report);
      (Array.length report.Fleet.devices, [ t_run; t_report ])

(* Repeat the workload until [seconds] have passed.  [runs_per_s] divides
   one iteration's runs by the sum of each span's median time: a host
   burst during one campaign, report or replay pass then costs one sample
   of that span, not a whole iteration. *)
let run_mode w ~seed ~seconds =
  let t0 = now_ns () in
  let rec loop iterations =
    let iterations = iteration ~seed w :: iterations in
    if fl (now_ns () - t0) /. 1e9 < seconds then loop iterations else iterations
  in
  let iterations = List.rev (loop []) in
  let runs = fst (List.hd iterations) in
  let samples =
    List.fold_left
      (fun acc (_, spans) -> List.map2 (fun acc ns -> fl ns :: acc) acc spans)
      (List.map (fun _ -> []) (snd (List.hd iterations)))
      iterations
  in
  let typical_ns = List.fold_left (fun t span -> t +. median span) 0. samples in
  let rate (_, spans) = fl runs /. (fl (sum spans) /. 1e9) in
  ([ ("runs_per_s", fl runs /. (typical_ns /. 1e9)) ], List.map rate iterations)

(* ---------- the layer split, from the runtime probe ---------- *)

(* Host time between two consecutive probe hits is charged to the
   innermost open bracket: one monitor step (rt.monitor_step.before to
   .after) or one NVM operation (nvm.<op>.before to .after).  Time
   outside every bracket is the runtime's self time.  Every interval
   includes the probe's own clock read and bookkeeping;
   bench.trace_overhead shows what tracing costs as a whole. *)
let slot_self = 0
let slot_monitor = 1
let slot_write = 2
let slot_tx_write = 3
let slot_commit = 4

(* (slot, opens) per injection site *)
let brackets =
  Array.map
    (fun label ->
      let slot =
        match String.rindex_opt label '.' with
        | None -> slot_self
        | Some i -> (
            match String.sub label 0 i with
            | "rt.monitor_step" -> slot_monitor
            | "nvm.write" -> slot_write
            | "nvm.tx_write" -> slot_tx_write
            | "nvm.commit_tx" -> slot_commit
            | _ -> slot_self)
      in
      (slot, Filename.check_suffix label ".before"))
    F.sites

let site_step = F.site_id "rt.monitor_step.before"
let site_write = F.site_id "nvm.write.before"
let site_tx_write = F.site_id "nvm.tx_write.before"
let site_commit = F.site_id "nvm.commit_tx.before"
let site_adapt_first = F.site_id "rt.adapt.stage.before"
let site_adapt_last = F.site_id "rt.adapt.clear.after"

type probe = {
  slots : int array;  (** ns per slot, summed over runs *)
  hits : int array;  (** this run's hits per site *)
  since : int array;  (** hits per site since the last injection *)
  mutable schedule : F.schedule;  (** injections still to fire *)
  stack : int array;
  mutable depth : int;
  mutable last : int;
  mutable adapt_from : int;  (** -1 when no update is in flight *)
  mutable adapt_ns : int;
  mutable adapt_updates : int;
}

let new_probe () =
  {
    slots = Array.make 5 0;
    hits = Array.make F.site_count 0;
    since = Array.make F.site_count 0;
    schedule = [];
    stack = Array.make 16 0;
    depth = 0;
    last = 0;
    adapt_from = -1;
    adapt_ns = 0;
    adapt_updates = 0;
  }

let charge p t =
  let top = if p.depth = 0 then slot_self else p.stack.(p.depth - 1) in
  p.slots.(top) <- p.slots.(top) + (t - p.last);
  p.last <- t

let probe_hit p label =
  let t = now_ns () in
  charge p t;
  let id = F.site_id label in
  p.hits.(id) <- p.hits.(id) + 1;
  let slot, opens = brackets.(id) in
  if slot <> slot_self then
    if opens then begin
      if p.depth < Array.length p.stack then begin
        p.stack.(p.depth) <- slot;
        p.depth <- p.depth + 1
      end
    end
    else if p.depth > 0 && p.stack.(p.depth - 1) = slot then p.depth <- p.depth - 1;
  if id = site_adapt_first && p.adapt_from < 0 then p.adapt_from <- t
  else if id = site_adapt_last && p.adapt_from >= 0 then begin
    p.adapt_ns <- p.adapt_ns + (t - p.adapt_from);
    p.adapt_updates <- p.adapt_updates + 1;
    p.adapt_from <- -1
  end;
  (* the schedule fires exactly as Faultsim.run_schedule fires it *)
  let occ = p.since.(id) in
  p.since.(id) <- occ + 1;
  match p.schedule with
  | (s, o) :: rest when s = id && o = occ ->
      p.schedule <- rest;
      Array.fill p.since 0 F.site_count 0;
      p.depth <- 0;
      raise (Nvm.Injected_failure label)
  | _ -> ()

(* Run a built scenario under the probe, timed whole. *)
let run_probed p (b : Scenario.built) ~backend ~schedule =
  Array.fill p.hits 0 F.site_count 0;
  Array.fill p.since 0 F.site_count 0;
  p.schedule <- schedule;
  p.depth <- 0;
  p.adapt_from <- -1;
  let t0 = now_ns () in
  p.last <- t0;
  let result =
    Runtime.run_instrumented ~config:b.Scenario.config
      ~adaptations:b.Scenario.adaptations ~backend ~probe:(probe_hit p)
      b.Scenario.device b.Scenario.app b.Scenario.suite
  in
  let t1 = now_ns () in
  charge p t1;
  (result, t1 - t0)

(* Totals over the split runs of one traced pass. *)
type acc = {
  probe : probe;
  mutable runs : int;
  mutable run_ns : int list;  (** probed run, per call *)
  mutable build_ns : int;
  mutable deploy_ns : int;
  mutable digest_ns : int;
  mutable snapshot_ns : int;  (** [snapshot_calls] snapshots per run *)
  mutable apparatus_ns : int;
      (** calls made only to measure, left out of the layer shares *)
  total_hits : int array;
  mutable events : int;
  mutable power_failures : int;
  mutable sim_us : int;
}

let new_acc () =
  {
    probe = new_probe ();
    runs = 0;
    run_ns = [];
    build_ns = 0;
    deploy_ns = 0;
    digest_ns = 0;
    snapshot_ns = 0;
    apparatus_ns = 0;
    total_hits = Array.make F.site_count 0;
    events = 0;
    power_failures = 0;
    sim_us = 0;
  }

(* Split one run into layers: Scenario.build, then the run under the
   probe, then Suite.create on the built machines (monitor deployment
   alone).  With [campaign], also time what every campaign run pays on
   top: Nvm.snapshot_region of the application region, which the
   task-atomicity oracle takes at each commit ([snapshot_calls] calls in
   a row on the final state), and Export.log_digest of the trace.
   Everything after the probed run is apparatus. *)
let snapshot_calls = 8

let split acc ~build ~prepare ~backend ~schedule ~campaign =
  let p = acc.probe in
  let b, t_build = timed build in
  prepare b;
  let result, t_run = run_probed p b ~backend:(backend b) ~schedule in
  let _, t_deploy =
    timed (fun () -> Suite.create (Nvm.create ()) b.Scenario.machines)
  in
  let log = Device.log b.Scenario.device in
  let nvm = Device.nvm b.Scenario.device in
  let t_snapshot, t_digest =
    if campaign then
      ( snd
          (timed (fun () ->
               for _ = 1 to snapshot_calls do
                 ignore (Nvm.snapshot_region nvm ~region:Nvm.Application)
               done)),
        snd (timed (fun () -> Export.log_digest log)) )
    else (0, 0)
  in
  acc.runs <- acc.runs + 1;
  acc.run_ns <- t_run :: acc.run_ns;
  acc.build_ns <- acc.build_ns + t_build;
  acc.deploy_ns <- acc.deploy_ns + t_deploy;
  acc.digest_ns <- acc.digest_ns + t_digest;
  acc.snapshot_ns <- acc.snapshot_ns + t_snapshot;
  acc.apparatus_ns <- acc.apparatus_ns + t_deploy + t_snapshot + t_digest;
  Array.iteri (fun i h -> acc.total_hits.(i) <- acc.total_hits.(i) + h) p.hits;
  acc.events <- acc.events + Log.length log;
  let stats = result.Runtime.stats in
  acc.power_failures <- acc.power_failures + stats.Stats.power_failures;
  acc.sim_us <- acc.sim_us + Time.to_us stats.Stats.total_time;
  (stats, Array.copy p.hits, t_build, t_run)

let gc_delta (g0 : Gc.stat) (g1 : Gc.stat) =
  ( g1.Gc.minor_words +. g1.Gc.major_words -. g1.Gc.promoted_words
    -. (g0.Gc.minor_words +. g0.Gc.major_words -. g0.Gc.promoted_words),
    g1.Gc.major_collections - g0.Gc.major_collections )

(* What a traced pass hands to [layer_metrics]. *)
type traced = {
  acc : acc;
  wall_ns : int;  (** the whole traced pass *)
  untraced_ns : int;  (** the same work untraced, at jobs 1 *)
  work_runs : int;  (** runs or devices of one untraced iteration *)
  alloc_words : float;  (** around the untraced jobs-1 section *)
  major_gcs : int;
  extra : (string * float) list;  (** workload-specific metrics *)
  rest : (string * int) list;  (** workload-specific layers, ns *)
}

let campaign_trace ~seed cs =
  let g0 = Gc.quick_stat () in
  let untraced = List.map (fun c -> (c, run_campaign ~seed c)) cs in
  let g1 = Gc.quick_stat () in
  let acc = new_acc () in
  let schedule_ns = ref [] and oracle_ns = ref 0 in
  let report_ns = ref 0 and replay_ns = ref 0 and replays = ref 0 in
  let w0 = now_ns () in
  List.iter
    (fun (c, (camp, _)) ->
      List.iter
        (fun (r : F.run_result) ->
          let again, t_run =
            timed (fun () -> F.run_schedule c.scenario ~seed:r.F.seed r.F.schedule)
          in
          let _, hits, t_build, t_split =
            split acc
              ~build:(fun () -> c.scenario.Scenario.build ~engine:None ~seed:r.F.seed)
              ~prepare:ignore
              ~backend:(fun b -> b.Scenario.backend)
              ~schedule:r.F.schedule ~campaign:true
          in
          let line = F.replay_line ~seed:r.F.seed r.F.schedule in
          if again.F.digest <> r.F.digest then
            problem ("run_schedule digest differs from the campaign at " ^ line);
          if hits <> r.F.hits then problem ("probe hits differ from the campaign at " ^ line);
          schedule_ns := t_run :: !schedule_ns;
          oracle_ns := !oracle_ns + (t_run - t_build - t_split);
          (* here the whole split is apparatus: run_schedule did the work *)
          acc.apparatus_ns <- acc.apparatus_ns + t_build + t_split)
        (camp.F.baseline :: camp.F.runs);
      let (), t = timed (fun () -> to_null (fun oc -> F.output_campaign_json oc camp)) in
      report_ns := !report_ns + t;
      if c.replays then
        List.iter
          (fun r ->
            let _, t = timed (fun () -> reproducible c.scenario r) in
            replay_ns := !replay_ns + t;
            incr replays)
          camp.F.runs)
    untraced;
  let wall_ns = now_ns () - w0 in
  let camps = List.map (fun (_, (camp, _)) -> camp) untraced in
  let runs = sum (List.map (fun camp -> List.length camp.F.runs) camps) in
  let untraced_ns = sum (List.concat_map (fun (_, (_, spans)) -> spans) untraced) in
  let alloc_words, major_gcs = gc_delta g0 g1 in
  let per_run x = ratio (fl x) (fl acc.runs) in
  {
    acc;
    wall_ns;
    untraced_ns;
    work_runs = runs;
    alloc_words;
    major_gcs;
    extra =
      [
        ("faultsim.run_us.p50", fl (percentile 0.50 !schedule_ns) /. 1e3);
        ("faultsim.run_us.p99", fl (percentile 0.99 !schedule_ns) /. 1e3);
        ("faultsim.oracle_us", per_run !oracle_ns /. 1e3);
        ("faultsim.replay_us", ratio (fl !replay_ns) (fl !replays) /. 1e3);
        ("faultsim.report_us", ratio (fl !report_ns) (fl (List.length cs)) /. 1e3);
        ("faultsim.runs", fl runs);
        ("runs_per_s", ratio (fl runs) (fl untraced_ns /. 1e9));
        ("faultsim.violations", fl (sum (List.map F.total_violations camps)));
        ( "nvm.snapshot_us",
          per_run acc.snapshot_ns /. fl snapshot_calls
          *. per_run acc.total_hits.(site_commit) /. 1e3 );
        ("trace.digest_us", per_run acc.digest_ns /. 1e3);
      ];
    rest =
      [
        ("faultsim.oracle", !oracle_ns);
        ("faultsim.report", !report_ns);
        ("faultsim.replay", !replay_ns);
      ];
  }

(* Fleet.run's private profile -> policy mapping, restated; the replica
   check below catches any drift from it. *)
let policy_of_profile : Fleet.profile -> Charging_policy.t option = function
  | Fleet.Scenario_default -> None
  | Fleet.Fixed_delay d -> Some (Charging_policy.Fixed_delay d)
  | Fleet.Duty_cycle { avg_uw } ->
      Some
        (Charging_policy.From_harvester
           (Harvester.Duty_cycle
              { period = Time.of_min 2; on_fraction = 0.5; rate = Energy.uw (2. *. avg_uw) }))
  | Fleet.Constant { avg_uw } ->
      Some (Charging_policy.From_harvester (Harvester.Constant (Energy.uw avg_uw)))

(* The device matrix in Fleet.run's index order: scenario-major, then
   harvester, engine and backend, seeds fastest.  The replica runs only
   the scenario's default engine. *)
let fleet_devices (spec : Fleet.spec) =
  if spec.Fleet.engines <> [ "default" ] then
    failwith "the fleet replica runs the default engine only";
  List.concat_map
    (fun name ->
      let scenario = find_scenario name in
      List.concat_map
        (fun profile ->
          List.concat_map
            (fun backend_name ->
              let backend =
                match Backends.find backend_name with
                | Some b -> b
                | None -> failwith ("unknown backend " ^ backend_name)
              in
              List.init spec.Fleet.seed_count (fun k ->
                  (scenario, profile, backend_name, backend, spec.Fleet.seed_first + k)))
            spec.Fleet.backends)
        spec.Fleet.profiles)
    spec.Fleet.scenarios

let outcome_label (s : Stats.t) =
  match s.Stats.outcome with
  | Stats.Completed -> "completed"
  | Stats.Did_not_finish reason -> "dnf:" ^ reason

let fleet_trace spec =
  let report_n, t_run_n, t_report_n = run_fleet ~jobs:nproc spec in
  let digest_n = fleet_digest report_n in
  check_digest "fleet" digest_n;
  let n = Array.length report_n.Fleet.devices in
  let ticks = Array.make n 0 in
  let on_progress ~completed ~total:_ = ticks.(completed - 1) <- now_ns () in
  let g0 = Gc.quick_stat () in
  let t_start = now_ns () in
  let report_1, t_run_1, t_report_1 = run_fleet ~on_progress ~jobs:1 spec in
  let g1 = Gc.quick_stat () in
  let same = fleet_digest report_1 = digest_n in
  operation ~ok:same;
  if not same then problem "fleet report at jobs 1 differs from jobs nproc";
  let gaps = List.init n (fun i -> ticks.(i) - if i = 0 then t_start else ticks.(i - 1)) in
  let acc = new_acc () in
  let w0 = now_ns () in
  List.iteri
    (fun i (scenario, profile, backend_name, backend, seed) ->
      let stats, _, _, _ =
        split acc
          ~build:(fun () -> scenario.Scenario.build ~engine:None ~seed)
          ~prepare:(fun b ->
            Option.iter (Device.set_policy b.Scenario.device) (policy_of_profile profile))
          ~backend:(fun _ -> backend)
          ~schedule:[] ~campaign:false
      in
      let d = report_1.Fleet.devices.(i) in
      if
        not
          (d.Fleet.scenario = scenario.Scenario.name
          && d.Fleet.seed = seed
          && d.Fleet.profile = Fleet.profile_label profile
          && d.Fleet.backend = backend_name
          && d.Fleet.outcome = outcome_label stats
          && d.Fleet.power_failures = stats.Stats.power_failures
          && d.Fleet.energy_uj = Energy.to_uj stats.Stats.energy_total)
      then problem (Printf.sprintf "fleet replica of device %d disagrees with the report" i))
    (fleet_devices spec);
  let (), t_report = timed (fun () -> to_null (fun oc -> Fleet.output_report_json oc report_1)) in
  let wall_ns = now_ns () - w0 in
  let alloc_words, major_gcs = gc_delta g0 g1 in
  let speedup = ratio (fl t_run_1) (fl t_run_n) in
  {
    acc;
    wall_ns;
    untraced_ns = t_run_1 + t_report_1;
    work_runs = n;
    alloc_words;
    major_gcs;
    extra =
      [
        ("fleet.device_us.p50", fl (percentile 0.50 gaps) /. 1e3);
        ("fleet.device_us.p99", fl (percentile 0.99 gaps) /. 1e3);
        ("fleet.report_us", fl t_report /. 1e3);
        ("par.speedup", speedup);
        ("par.efficiency", speedup /. fl nproc);
        ("runs_per_s", ratio (fl n) (fl (t_run_n + t_report_n) /. 1e9));
      ];
    rest = [ ("fleet.report", t_report) ];
  }

(* Metrics only some workloads produce; the others report 0 for them.
   [runs_per_s] comes from the untraced pass, for the one-command view. *)
let workload_specific =
  [
    "faultsim.run_us.p50"; "faultsim.run_us.p99"; "faultsim.oracle_us";
    "faultsim.replay_us"; "faultsim.report_us"; "faultsim.runs";
    "faultsim.violations"; "nvm.snapshot_us"; "trace.digest_us";
    "fleet.device_us.p50"; "fleet.device_us.p99"; "fleet.report_us";
    "par.speedup"; "par.efficiency"; "runs_per_s";
  ]

(* Per-layer metrics of one traced pass.  Layer shares are of the traced
   wall minus the apparatus (calls made only to measure: the whole split
   of a campaign run, Suite.create, and the snapshot and digest timings),
   so they describe the workload's own time. *)
let layer_metrics t =
  let a = t.acc in
  let p = a.probe in
  let per_run x = ratio x (fl a.runs) in
  let hits id = fl a.total_hits.(id) in
  let slot k = fl p.slots.(k) in
  let layers =
    [
      ("scenario.build", fl a.build_ns);
      ("runtime.self", slot slot_self);
      ("monitor", slot slot_monitor);
      ("nvm", slot slot_write +. slot slot_tx_write +. slot slot_commit);
    ]
    @ List.map (fun (k, ns) -> (k, fl ns)) t.rest
  in
  let work = fl (t.wall_ns - a.apparatus_ns) in
  let attributed = List.fold_left (fun acc (_, ns) -> acc +. ns) 0. layers in
  let common =
    [
      ("scenario.build_us", per_run (fl a.build_ns) /. 1e3);
      ("monitor.deploy_us", per_run (fl a.deploy_ns) /. 1e3);
      ("runtime.run_us.p50", fl (percentile 0.50 a.run_ns) /. 1e3);
      ("runtime.run_us.p99", fl (percentile 0.99 a.run_ns) /. 1e3);
      ("runtime.self_us", per_run (slot slot_self) /. 1e3);
      ("runtime.events", per_run (fl a.events));
      ("runtime.ns_per_event", ratio (fl (sum a.run_ns)) (fl a.events));
      ("monitor.steps", per_run (hits site_step));
      ("monitor.step_ns", ratio (slot slot_monitor) (hits site_step));
      ("nvm.writes", per_run (hits site_write));
      ("nvm.tx_writes", per_run (hits site_tx_write));
      ("nvm.commits", per_run (hits site_commit));
      ("nvm.commit_ns", ratio (slot slot_commit) (hits site_commit));
      ("adapt.update_us", ratio (fl p.adapt_ns) (fl p.adapt_updates) /. 1e3);
      ("device.power_failures", per_run (fl a.power_failures));
      ("device.sim_s", per_run (fl a.sim_us) /. 1e6);
      ( "gc.alloc_kb_per_run",
        ratio (t.alloc_words *. fl (Sys.word_size / 8)) (fl t.work_runs) /. 1024. );
      ("gc.major_collections", fl t.major_gcs);
      ("bench.trace_overhead", ratio (fl t.wall_ns) (fl t.untraced_ns) -. 1.);
      ("bench.unattributed_share", ratio (work -. attributed) work);
      ("error_rate", ratio (fl tally.failed) (fl tally.attempted));
    ]
  in
  let specific =
    List.map
      (fun k -> (k, Option.value (List.assoc_opt k t.extra) ~default:0.))
      workload_specific
  in
  let rows =
    layers @ [ ("unattributed", work -. attributed); ("apparatus", fl a.apparatus_ns) ]
  in
  (common @ specific, rows)

(* ---------- main ---------- *)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_obj render kvs =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (F.json_string k) (render v)) kvs)
  ^ "}"

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. in
  let mode = ref "run" and size = ref Full in
  let expect s =
    match String.index_opt s '=' with
    | Some i ->
        expected :=
          !expected @ [ (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1)) ]
    | None -> raise (Arg.Bad ("--expect wants KEY=HEX, got " ^ s))
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S run-mode measuring time");
      ("--mode", Arg.Symbol ([ "setup"; "run"; "trace" ], fun m -> mode := m), " what to do");
      ( "--size",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then Tiny else Full),
        " input size" );
      ("--expect", Arg.String expect, "KEY=HEX reference digest of a report");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME [options]  (normally started by run.py)";
  (* set-up: input generation, spec parsing and validation, warm-up *)
  let w = make_workload !workload ~seed:!seed ~size:!size in
  (match w with
  | Campaigns cs -> List.iter (fun c -> ignore (F.run_schedule c.scenario ~seed:!seed [])) cs
  | Fleet_mix spec -> ignore (Fleet.run ~jobs:nproc { spec with Fleet.seed_count = 1 }));
  let t_first_op = Unix.gettimeofday () in
  let metrics, rates, layers =
    match (!mode, w) with
    | "setup", _ -> ([], [], [])
    | "run", _ ->
        let metrics, rates = run_mode w ~seed:!seed ~seconds:!seconds in
        (metrics, rates, [])
    | _, Campaigns cs ->
        let metrics, layers = layer_metrics (campaign_trace ~seed:!seed cs) in
        (metrics, [], layers)
    | _, Fleet_mix spec ->
        let metrics, layers = layer_metrics (fleet_trace spec) in
        (metrics, [], layers)
  in
  print_endline
    (json_obj Fun.id
       [
         ("workload", F.json_string !workload);
         ("t_first_op", Printf.sprintf "%.6f" t_first_op);
         ("nproc", string_of_int nproc);
         ("attempted", string_of_int tally.attempted);
         ("failed", string_of_int tally.failed);
         ( "problems",
           "[" ^ String.concat ", " (List.rev_map F.json_string tally.problems) ^ "]" );
         ("digests", json_obj F.json_string !digests);
         ("metrics", json_obj json_float metrics);
         ( "iteration_rates",
           "[" ^ String.concat ", " (List.map json_float rates) ^ "]" );
         ("layers_ns", json_obj json_float layers);
       ])
