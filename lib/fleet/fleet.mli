(** Fleet-scale simulation service (PR 8).

    The paper simulates one intermittent device; production means a
    {e fleet}.  A {!spec} names the sweep axes - scenario x seed range x
    harvester profile x monitor engine x task backend - and {!run}
    expands them into a
    device matrix, runs every device as an independent simulation
    sharded over domains with {!Artemis.Obs.par_map}, and folds the
    per-device records into one deterministically-merged {!report}:
    outcome and verdict histograms, energy percentiles, per-group
    roll-ups and the worst-case devices.

    Determinism contract (the same one the faultsim campaign runner
    pins): device [i]'s record depends only on the spec and [i], results
    are merged in device-index order, and when the caller's
    {!Artemis.Obs} context is recording each device runs in its own
    context absorbed back in index order - so the report and any
    exported trace are byte-identical for every [jobs] value. *)

open Artemis

(** {2 Harvester profiles} *)

(** How each device in the sweep recharges after a brown-out.  The
    scenario builder picks its own policy; a non-default profile
    overrides it ({!Artemis.Device.set_policy}) before the run starts. *)
type profile =
  | Scenario_default
  | Fixed_delay of Time.t  (** the paper's charging-time knob *)
  | Duty_cycle of { avg_uw : float }
      (** the harvester study's shape, {!Artemis.Harvester.duty_cycle} *)
  | Constant of { avg_uw : float }  (** steady incoming power *)

val profile_of_string : string -> (profile, string) result
(** ["default"], ["fixed:30s"] (also [us]/[ms]/[min] suffixes; the delay
    must round to at least 1us and stay below [max_int] us),
    ["duty:200uw"], ["constant:65uw"].  A duty or constant source must
    pass {!Artemis.Harvester.validate}. *)

val profile_label : profile -> string
(** Canonical rendering, parseable by {!profile_of_string}. *)

(** {2 Fleet specs} *)

type spec = {
  fleet_name : string;
  scenarios : string list;  (** {!Artemis_faultsim.Scenario} names *)
  seed_first : int;
  seed_count : int;  (** seeds [seed_first .. seed_first+seed_count-1] *)
  profiles : profile list;
  engines : string list;
      (** ["default"] (each scenario's own engine) or a name from
          {!Artemis.Monitor.engines} *)
  backends : string list;
      (** {!Artemis.Backends} names (PR 10); every device in the sweep
          runs its scenario under the named task-execution backend *)
}

val spec_of_json : string -> (spec, string) result
(** Parse a fleet spec document, e.g.
    [{"name": "smoke", "scenarios": ["quickstart"],
      "seeds": {"first": 0, "count": 100},
      "harvesters": ["default", "fixed:30s", "duty:200uw"],
      "engines": ["interpreted", "table"],
      "backends": ["immortal", "alpaca"]}].
    [name] defaults to ["fleet"], [seeds.first] to [0], [harvesters] to
    [["default"]], [engines] to [["default"]] and [backends] to
    [["immortal"]]; [scenarios] and [seeds.count] are required.
    Scenario, profile, engine and backend names are validated here, so
    {!run} cannot fail on a parsed spec. *)

val validate_spec : spec -> (spec, string) result
(** The checks {!spec_of_json} ends with: every axis non-empty, a
    positive seed count, and every scenario, engine and backend name
    resolving, through the same resolver {!run} expands the matrix
    with. *)

val spec_size : spec -> int
(** Devices in the matrix:
    [scenarios * profiles * engines * backends * seed_count]. *)

(** {2 Per-device records} *)

type device_result = {
  index : int;  (** position in the device matrix *)
  scenario : string;
  seed : int;
  profile : string;  (** {!profile_label} *)
  engine : string;
  backend : string;  (** the task backend's [name] ({!Artemis.Backend.b}) *)
  outcome : string;  (** ["completed"] or ["dnf:<reason>"] *)
  power_failures : int;
  reboots : int;
  energy_uj : float;  (** total energy drawn *)
  monitor_uj : float;  (** share attributed to property checking *)
  active_us : int;
  off_us : int;
  verdicts : (string * int) list;
      (** corrective-action counts (e.g. ["skipPath"]), sorted by name *)
  freshness_violations : int;
      (** input-freshness oracle hits, for scenarios with a budget *)
}

(** {2 Reports} *)

type group = {
  g_scenario : string;
  g_profile : string;
  g_engine : string;
  g_backend : string;
  g_devices : int;
  g_completed : int;
  g_power_failures : int;
  g_verdicts : int;
  g_energy_uj : float;  (** total across the group's devices *)
}

type report = {
  spec : spec;
  devices : device_result array;  (** device-index order *)
  outcomes : (string * int) list;  (** outcome histogram, sorted *)
  verdict_totals : (string * int) list;  (** fleet-wide verdict histogram *)
  energy_percentiles : (string * float) list;
      (** [("p50", uj); ("p90", _); ("p99", _); ("max", _)] *)
  worst : device_result list;  (** worst devices first; see {!worst_devices} *)
  groups : group list;
      (** one row per scenario x profile x engine x backend *)
}

val worst_devices : k:int -> device_result list -> device_result list
(** The [k] worst devices under the fleet badness order: did-not-finish
    before completed, then more freshness violations, then more power
    failures, then more energy, ties broken by device index (so the
    ranking is total and jobs-invariant). *)

val percentile : float array -> float -> float
(** Nearest-rank percentile of an unsorted sample, [q] in [0, 1].
    @raise Invalid_argument on an empty sample or any non-finite sample
    value (a NaN would otherwise sort above every float and surface as
    p99/max). *)

val run :
  ?jobs:int ->
  ?on_progress:(completed:int -> total:int -> unit) ->
  spec ->
  report
(** Expand the matrix and run every device.  [jobs] (default 1) shards
    devices over domains (the report is byte-identical for every
    value).  [on_progress] is invoked under a lock after each device
    completes, from whichever domain finished it - completion order is
    nondeterministic, so drive progress/ETA output from it but never
    report content.

    @raise Invalid_argument if the spec is empty or [jobs < 1], and
    [Failure] if a scenario/engine/backend name does not resolve
    (impossible for a spec that passed {!validate_spec}). *)

val output_report_json : ?devices:bool -> out_channel -> report -> unit
(** Stream the report as JSON with a fixed key order.  [devices]
    (default [false]) appends the full per-device array - roll-ups stay
    a few KB however large the fleet is, so fleet-scale reports omit the
    raw rows unless asked. *)

val report_summary : report -> string
(** Short human-readable summary (used by the CLI and the cram test). *)
