(* Fleet-scale simulation service (PR 8).

   A fleet run is an embarrassingly parallel map over the device matrix
   followed by a deterministic fold.  All the parallel machinery is
   Obs.par_map, the faultsim campaign's fan-out: each device's record
   lands at its input index and, when the caller is recording, each
   device runs in a context of its own, absorbed back in index order.
   Either way the report is a pure function of the spec. *)

open Artemis
module Scenario = Artemis_faultsim.Scenario
module F = Artemis_faultsim.Faultsim

(* ------------------------------------------------------------------ *)
(* Harvester profiles *)

type profile =
  | Scenario_default
  | Fixed_delay of Time.t
  | Duty_cycle of { avg_uw : float }
  | Constant of { avg_uw : float }

let policy_of_profile = function
  | Scenario_default -> None
  | Fixed_delay d -> Some (Charging_policy.Fixed_delay d)
  | Duty_cycle { avg_uw } ->
      Some (Charging_policy.From_harvester (Harvester.duty_cycle ~avg_uw))
  | Constant { avg_uw } ->
      Some (Charging_policy.From_harvester (Harvester.Constant (Energy.uw avg_uw)))

let parse_positive what s =
  match float_of_string_opt s with
  | Some v when v > 0. && Float.is_finite v -> Ok v
  | _ -> Error (Printf.sprintf "%s must be a positive number (got %S)" what s)

let parse_time s =
  let num suffix =
    String.sub s 0 (String.length s - String.length suffix)
  in
  (* a delay is a whole number of microseconds: one that rounds to
     nothing would charge instantly and label itself unparseably, and
     one of [max_int] microseconds or more has no [Time.t] *)
  let scaled suffix to_us =
    Result.bind (parse_positive "delay" (num suffix)) (fun v ->
        let us = Float.round (to_us v) in
        if us >= Float.of_int max_int then
          Error (Printf.sprintf "delay out of range (got %S)" s)
        else if us < 1. then
          Error (Printf.sprintf "delay must be at least 1us (got %S)" s)
        else Ok (Time.of_us (int_of_float us)))
  in
  if String.length s > 2 && Filename.check_suffix s "min" then
    scaled "min" (fun v -> v *. 60. *. 1e6)
  else if String.length s > 2 && Filename.check_suffix s "ms" then
    scaled "ms" (fun v -> v *. 1000.)
  else if String.length s > 2 && Filename.check_suffix s "us" then
    scaled "us" Fun.id
  else if String.length s > 1 && Filename.check_suffix s "s" then
    scaled "s" (fun v -> v *. 1e6)
  else Error (Printf.sprintf "delay needs a unit suffix (us|ms|s|min): %S" s)

let parse_uw what s =
  if String.length s > 2 && Filename.check_suffix s "uw" then
    parse_positive what (String.sub s 0 (String.length s - 2))
  else Error (Printf.sprintf "%s needs a uw suffix (e.g. 200uw): %S" what s)

let parse_profile s =
  match String.index_opt s ':' with
  | None ->
      if s = "default" then Ok Scenario_default
      else
        Error
          (Printf.sprintf
             "unknown harvester profile %S (default|fixed:<delay>|duty:<uw>|constant:<uw>)"
             s)
  | Some i -> (
      let kind = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "fixed" -> Result.map (fun d -> Fixed_delay d) (parse_time arg)
      | "duty" ->
          Result.map (fun avg_uw -> Duty_cycle { avg_uw }) (parse_uw "duty" arg)
      | "constant" ->
          Result.map
            (fun avg_uw -> Constant { avg_uw })
            (parse_uw "constant" arg)
      | _ ->
          Error
            (Printf.sprintf
               "unknown harvester profile kind %S (fixed|duty|constant)" kind))

(* A profile's harvester must pass [Harvester.validate]: a rate or an
   energy per period past the float range would stall the charging
   search. *)
let profile_of_string s =
  Result.bind (parse_profile s) (fun p ->
      match policy_of_profile p with
      | Some (Charging_policy.From_harvester h) ->
          Result.map_error
            (Printf.sprintf "harvester profile %S: %s" s)
            (Result.map (fun () -> p) (Harvester.validate h))
      | _ -> Ok p)

let uw_label v =
  if Float.is_integer v then Printf.sprintf "%.0fuw" v
  else Printf.sprintf "%guw" v

let profile_label = function
  | Scenario_default -> "default"
  | Fixed_delay d -> "fixed:" ^ Time.to_literal d
  | Duty_cycle { avg_uw } -> "duty:" ^ uw_label avg_uw
  | Constant { avg_uw } -> "constant:" ^ uw_label avg_uw

(* ------------------------------------------------------------------ *)
(* Specs *)

type spec = {
  fleet_name : string;
  scenarios : string list;
  seed_first : int;
  seed_count : int;
  profiles : profile list;
  engines : string list;
  backends : string list;
}

(* "default" keeps each scenario's own engine; every other name comes
   from the one engine table next to [Monitor.engine]. *)
let engine_of_string = function
  | "default" -> Ok None
  | name -> (
      match List.assoc_opt name Monitor.engines with
      | Some e -> Ok (Some e)
      | None ->
          Error
            (Printf.sprintf "unknown engine %S (%s)" name
               (String.concat "|" ("default" :: List.map fst Monitor.engines))))

let backend_of_string name =
  match Backends.find name with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown backend %S (%s)" name
           (String.concat "|" Backends.names))

(* [f] over [xs] in order; the first error wins *)
let rec map_ok f = function
  | [] -> Ok []
  | x :: xs -> Result.bind (f x) (fun y -> Result.map (List.cons y) (map_ok f xs))

(* The one resolver for the spec's names: [validate_spec] reports the
   first that does not resolve, and [run] expands the matrix from the
   values. *)
let resolve spec =
  let ( let* ) = Result.bind in
  let* scenarios = map_ok Scenario.lookup spec.scenarios in
  let* engines =
    map_ok
      (fun name -> Result.map (fun e -> (name, e)) (engine_of_string name))
      spec.engines
  in
  let* backends = map_ok backend_of_string spec.backends in
  Ok (Array.of_list scenarios, Array.of_list engines, Array.of_list backends)

let validate_spec spec =
  match
    List.find_opt fst
      [
        (spec.scenarios = [], "spec needs at least one scenario");
        (spec.seed_count < 1, "seeds.count must be positive");
        (spec.profiles = [], "spec needs at least one harvester profile");
        (spec.engines = [], "spec needs at least one engine");
        (spec.backends = [], "spec needs at least one backend");
      ]
  with
  | Some (_, msg) -> Error msg
  | None -> Result.map (fun _ -> spec) (resolve spec)

let spec_of_json text =
  let ( let* ) = Result.bind in
  let* doc = Json.parse text in
  let str_list what default = function
    | None -> Ok default
    | Some j -> (
        match Json.to_arr j with
        | None -> Error (Printf.sprintf "%s must be an array of strings" what)
        | Some items ->
            map_ok
              (fun item ->
                Option.to_result (Json.to_str item)
                  ~none:(Printf.sprintf "%s must be an array of strings" what))
              items)
  in
  let int_field what default = function
    | None -> (
        match default with
        | Some d -> Ok d
        | None -> Error (Printf.sprintf "spec is missing %s" what))
    | Some j -> (
        match Json.to_num j with
        | Some n when Float.is_integer n -> Ok (int_of_float n)
        | _ -> Error (Printf.sprintf "%s must be an integer" what))
  in
  let* fleet_name =
    match Json.member "name" doc with
    | None -> Ok "fleet"
    | Some j -> (
        match Json.to_str j with
        | Some s -> Ok s
        | None -> Error "name must be a string")
  in
  let* scenarios =
    match Json.member "scenarios" doc with
    | None -> Error "spec is missing scenarios"
    | some -> str_list "scenarios" [] some
  in
  let seeds = Json.member "seeds" doc in
  let* seed_first =
    int_field "seeds.first" (Some 0) (Option.bind seeds (Json.member "first"))
  in
  let* seed_count =
    int_field "seeds.count" None (Option.bind seeds (Json.member "count"))
  in
  let* harvesters =
    str_list "harvesters" [ "default" ] (Json.member "harvesters" doc)
  in
  let* profiles = map_ok profile_of_string harvesters in
  let* engines = str_list "engines" [ "default" ] (Json.member "engines" doc) in
  let* backends =
    str_list "backends" [ "immortal" ] (Json.member "backends" doc)
  in
  validate_spec
    { fleet_name; scenarios; seed_first; seed_count; profiles; engines;
      backends }

let spec_size spec =
  List.length spec.scenarios * List.length spec.profiles
  * List.length spec.engines * List.length spec.backends * spec.seed_count

(* ------------------------------------------------------------------ *)
(* Per-device runs *)

type device_result = {
  index : int;
  scenario : string;
  seed : int;
  profile : string;
  engine : string;
  backend : string;
  outcome : string;
  power_failures : int;
  reboots : int;
  energy_uj : float;
  monitor_uj : float;
  active_us : int;
  off_us : int;
  verdicts : (string * int) list;
  freshness_violations : int;
}

type coord = {
  c_scenario : Scenario.t;
  c_seed : int;
  c_profile : profile;
  c_engine : string;
  c_backend : Backend.b;
}

(* Scenario-major decomposition of the flat device index; seeds vary
   fastest so consecutive devices share a freshly-warmed scenario
   closure. *)
let expand spec (scenarios, engines, backends) =
  let profiles = Array.of_list spec.profiles in
  let np = Array.length profiles and ne = Array.length engines in
  let nb = Array.length backends in
  let k = spec.seed_count in
  fun idx ->
    let seed_i = idx mod k and idx = idx / k in
    let b_i = idx mod nb and idx = idx / nb in
    let e_i = idx mod ne and idx = idx / ne in
    let p_i = idx mod np and s_i = idx / np in
    let name, engine = engines.(e_i) in
    let scenario = scenarios.(s_i) in
    let scenario =
      match engine with
      | None -> scenario
      | Some e -> Scenario.with_engine e scenario
    in
    {
      c_scenario = scenario;
      c_seed = spec.seed_first + seed_i;
      c_profile = profiles.(p_i);
      c_engine = name;
      c_backend = backends.(b_i);
    }

let histogram key items =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun item ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v + try Hashtbl.find tbl k with Not_found -> 0))
        (key item))
    items;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let verdict_counts log =
  histogram
    (fun (e : Event.timed) ->
      match e.Event.event with
      | Event.Monitor_verdict { action; _ } -> [ (action, 1) ]
      | _ -> [])
    (Log.events log)

let run_device ~index coord =
  let built =
    coord.c_scenario.Scenario.build ~engine:None ~seed:coord.c_seed
  in
  (match policy_of_profile coord.c_profile with
  | None -> ()
  | Some policy -> Device.set_policy built.Scenario.device policy);
  let backend = coord.c_backend in
  let stats =
    Runtime.run ~config:built.Scenario.config
      ~adaptations:built.Scenario.adaptations ~backend built.Scenario.device
      built.Scenario.app built.Scenario.suite
  in
  let freshness_violations =
    match built.Scenario.freshness with
    | None -> 0
    | Some tracker -> List.length (Consistency.Freshness.violations tracker)
  in
  {
    index;
    scenario = coord.c_scenario.Scenario.name;
    seed = coord.c_seed;
    profile = profile_label coord.c_profile;
    engine = coord.c_engine;
    backend = backend.Backend.name;
    outcome = Stats.outcome_string stats;
    power_failures = stats.Stats.power_failures;
    reboots = stats.Stats.reboots;
    energy_uj = Energy.to_uj stats.Stats.energy_total;
    monitor_uj = Energy.to_uj stats.Stats.energy_monitor;
    active_us = Time.to_us (Stats.active_time stats);
    off_us = Time.to_us stats.Stats.off_time;
    verdicts = verdict_counts (Device.log built.Scenario.device);
    freshness_violations;
  }

(* ------------------------------------------------------------------ *)
(* Roll-ups *)

let percentile sample q =
  let n = Array.length sample in
  if n = 0 then invalid_arg "Fleet.percentile: empty sample";
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Fleet.percentile: q must be in [0, 1]";
  (* Float.compare totally orders NaN above every float, so a single
     NaN sample would silently surface as p99/max in the fleet roll-up.
     Refuse loudly instead of reporting garbage. *)
  Array.iter
    (fun x ->
      if not (Float.is_finite x) then
        invalid_arg "Fleet.percentile: non-finite sample")
    sample;
  let sorted = Array.copy sample in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

(* Total order: DNF before completed, then freshness violations, power
   failures and energy descending, index ascending - jobs-invariant
   because index breaks every tie. *)
let worse a b =
  let dnf r = r.outcome <> "completed" in
  let cmp =
    compare (dnf b, b.freshness_violations, b.power_failures)
      (dnf a, a.freshness_violations, a.power_failures)
  in
  if cmp <> 0 then cmp
  else
    let cmp = Float.compare b.energy_uj a.energy_uj in
    if cmp <> 0 then cmp else compare a.index b.index

let worst_devices ~k devices =
  let sorted = List.sort worse devices in
  List.filteri (fun i _ -> i < k) sorted

type group = {
  g_scenario : string;
  g_profile : string;
  g_engine : string;
  g_backend : string;
  g_devices : int;
  g_completed : int;
  g_power_failures : int;
  g_verdicts : int;
  g_energy_uj : float;
}

type report = {
  spec : spec;
  devices : device_result array;
  outcomes : (string * int) list;
  verdict_totals : (string * int) list;
  energy_percentiles : (string * float) list;
  worst : device_result list;
  groups : group list;
}

(* One row per scenario x profile x engine x backend, in matrix order:
   devices arrive index-sorted, so each group's seed block is contiguous. *)
let group_rollup spec devices =
  let seed_count = spec.seed_count in
  let rec blocks i acc =
    if i >= Array.length devices then List.rev acc
    else
      let first = devices.(i) in
      let g =
        Array.fold_left
          (fun g d ->
            {
              g with
              g_devices = g.g_devices + 1;
              g_completed =
                (g.g_completed + if d.outcome = "completed" then 1 else 0);
              g_power_failures = g.g_power_failures + d.power_failures;
              g_verdicts =
                g.g_verdicts
                + List.fold_left (fun a (_, n) -> a + n) 0 d.verdicts;
              g_energy_uj = g.g_energy_uj +. d.energy_uj;
            })
          {
            g_scenario = first.scenario;
            g_profile = first.profile;
            g_engine = first.engine;
            g_backend = first.backend;
            g_devices = 0;
            g_completed = 0;
            g_power_failures = 0;
            g_verdicts = 0;
            g_energy_uj = 0.;
          }
          (Array.sub devices i seed_count)
      in
      blocks (i + seed_count) (g :: acc)
  in
  blocks 0 []

let rollup spec devices =
  let device_list = Array.to_list devices in
  {
    spec;
    devices;
    outcomes = histogram (fun d -> [ (d.outcome, 1) ]) device_list;
    verdict_totals = histogram (fun d -> d.verdicts) device_list;
    energy_percentiles =
      (let sample = Array.map (fun d -> d.energy_uj) devices in
       [
         ("p50", percentile sample 0.50);
         ("p90", percentile sample 0.90);
         ("p99", percentile sample 0.99);
         ("max", percentile sample 1.0);
       ]);
    worst = worst_devices ~k:5 device_list;
    groups = group_rollup spec devices;
  }

(* ------------------------------------------------------------------ *)
(* The fleet runner *)

let run ?(jobs = 1) ?on_progress spec =
  let n = spec_size spec in
  if n = 0 then invalid_arg "Fleet.run: empty device matrix";
  if jobs < 1 then invalid_arg "Fleet.run: jobs must be >= 1";
  let coord =
    match resolve spec with
    | Ok names -> expand spec names
    | Error msg -> failwith ("Fleet.run: " ^ msg)
  in
  let progress_lock = Mutex.create () in
  let completed = ref 0 in
  let tick () =
    match on_progress with
    | None -> ()
    | Some f ->
        Mutex.protect progress_lock (fun () ->
            incr completed;
            f ~completed:!completed ~total:n)
  in
  let devices =
    Obs.par_map ~jobs n (fun i ->
        let r = run_device ~index:i (coord i) in
        tick ();
        r)
  in
  rollup spec devices

(* ------------------------------------------------------------------ *)
(* Reports *)

let output_report_json ?(devices = false) oc report =
  let emit = output_string oc in
  let emitf fmt = Printf.ksprintf emit fmt in
  let str = F.json_string in
  let strings names =
    String.concat ", " (List.map str names)
  in
  let pairs render kvs =
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (str k) (render v)) kvs)
  in
  emitf "{\n  \"fleet\": %s,\n" (str report.spec.fleet_name);
  emitf "  \"devices\": %d,\n" (Array.length report.devices);
  emitf "  \"scenarios\": [%s],\n" (strings report.spec.scenarios);
  emitf "  \"seeds\": {\"first\": %d, \"count\": %d},\n" report.spec.seed_first
    report.spec.seed_count;
  emitf "  \"harvesters\": [%s],\n"
    (strings (List.map profile_label report.spec.profiles));
  emitf "  \"engines\": [%s],\n" (strings report.spec.engines);
  emitf "  \"backends\": [%s],\n" (strings report.spec.backends);
  emitf "  \"outcomes\": {%s},\n" (pairs string_of_int report.outcomes);
  emitf "  \"verdicts\": {%s},\n" (pairs string_of_int report.verdict_totals);
  emitf "  \"energyPercentilesUj\": {%s},\n"
    (pairs Json.float_lit report.energy_percentiles);
  emit "  \"groups\": [\n";
  let last_group = List.length report.groups - 1 in
  List.iteri
    (fun i g ->
      emitf
        "    {\"scenario\": %s, \"harvester\": %s, \"engine\": %s, \
         \"backend\": %s, \"devices\": %d, \"completed\": %d, \
         \"powerFailures\": %d, \"verdicts\": %d, \"energyUj\": %s}%s\n"
        (str g.g_scenario) (str g.g_profile) (str g.g_engine)
        (str g.g_backend) g.g_devices
        g.g_completed g.g_power_failures g.g_verdicts
        (Json.float_lit g.g_energy_uj)
        (if i = last_group then "" else ","))
    report.groups;
  emit "  ],\n";
  let emit_device indent d last =
    emitf
      "%s{\"index\": %d, \"scenario\": %s, \"seed\": %d, \"harvester\": %s, \
       \"engine\": %s, \"backend\": %s, \"outcome\": %s, \"powerFailures\": \
       %d, \"reboots\": %d, \"energyUj\": %s, \"monitorUj\": %s, \
       \"activeUs\": %d, \"offUs\": %d, \"verdicts\": {%s}, \
       \"freshnessViolations\": %d}%s\n"
      indent d.index (str d.scenario) d.seed (str d.profile) (str d.engine)
      (str d.backend) (str d.outcome) d.power_failures d.reboots
      (Json.float_lit d.energy_uj)
      (Json.float_lit d.monitor_uj)
      d.active_us d.off_us
      (pairs string_of_int d.verdicts)
      d.freshness_violations
      (if last then "" else ",")
  in
  emit "  \"worst\": [\n";
  let last_worst = List.length report.worst - 1 in
  List.iteri
    (fun i d -> emit_device "    " d (i = last_worst))
    report.worst;
  if devices then begin
    emit "  ],\n";
    emit "  \"deviceResults\": [\n";
    let n = Array.length report.devices in
    Array.iteri (fun i d -> emit_device "    " d (i = n - 1)) report.devices;
    emit "  ]\n"
  end
  else emit "  ]\n";
  emit "}\n"

let report_summary report =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add
    "fleet %s: %d devices (%d scenarios x %d harvesters x %d engines x %d \
     backends x %d seeds)\n"
    report.spec.fleet_name
    (Array.length report.devices)
    (List.length report.spec.scenarios)
    (List.length report.spec.profiles)
    (List.length report.spec.engines)
    (List.length report.spec.backends)
    report.spec.seed_count;
  let kvs render kvs =
    String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ render v) kvs)
  in
  add "outcomes: %s\n" (kvs string_of_int report.outcomes);
  if report.verdict_totals <> [] then
    add "verdicts: %s\n" (kvs string_of_int report.verdict_totals);
  add "energy uJ: %s\n"
    (kvs (Printf.sprintf "%.1f") report.energy_percentiles);
  add "worst devices:\n";
  List.iter
    (fun d ->
      add "  #%d %s seed=%d %s %s %s %s failures=%d energy=%.1fuJ%s\n" d.index
        d.scenario d.seed d.profile d.engine d.backend d.outcome d.power_failures
        d.energy_uj
        (if d.freshness_violations > 0 then
           Printf.sprintf " freshness=%d" d.freshness_violations
         else ""))
    report.worst;
  Buffer.contents buf
