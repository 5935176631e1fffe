(** Deterministic power-failure fault-injection engine.

    The runtime and the NVM store expose numbered {e injection sites} -
    probe callbacks placed immediately before and after every piece of
    crash-critical bookkeeping (FRAM writes, transaction commits, monitor
    steps, event-cell updates, verdict application).  A {e schedule} names
    the exact dynamic instants at which to inject power failures; running
    a scenario under a schedule is fully deterministic, so any failing
    campaign run collapses to a one-line reproducer.

    After every run six invariant oracles check the crash-consistency
    contract the paper's runtime promises (Sections 3.1 and 4.1):

    - {b task-atomicity}: committed application-region FRAM only ever
      changes at transaction commit points - an injected crash can never
      expose a half-executed task.  Under the Alpaca backend (PR 10) the
      two-phase commit opens one more legitimate window: from the
      instant the commit log seals the region may also equal the
      {e promised} post-state, and the swap must publish exactly that
      write set (a torn publish is a violation);
    - {b golden re-execution}: replaying the journal of committed monitor
      calls against a pristine monitor suite reproduces the run's final
      monitor FRAM exactly (write-through immortal monitors lose nothing
      and double-apply nothing);
    - {b action-at-most-once}: every corrective action in the trace is
      justified by a fresh monitor verdict (no stale verdict is ever
      re-applied after a reboot);
    - {b stable-footprint}: injected runs allocate exactly the FRAM/RAM
      cells of the uninjected baseline (recovery paths never leak
      persistent state);
    - {b update-exactly-once}: a live property update delivered mid-run
      (PR 4) is applied exactly once, however many crashes interrupt its
      installation window;
    - {b input-freshness} (PR 7): scenarios built with
      {!Scenario.with_freshness} carry an
      {!Artemis.Consistency.Freshness} tracker on the device's record
      chokepoint; any declared consumer that starts or commits against
      producer data older than the scenario's budget - data age
      accumulates silently across power failures - becomes a campaign
      violation. *)

(** {2 Injection sites} *)

val sites : string array
(** All injection-point labels, indexed by site number:
    [sites.(i) = Site.label (Site.of_int i)].  {!Artemis.Site} states
    the numbering; schedules, replay lines and reports use it. *)

val site_count : int
(** [Site.count]. *)

val site_id : string -> int
(** The number of a site label, compared by content: the inverse of
    {!sites}, for tools that hold labels.  Campaign runs never call it:
    their hook sees each hit's site by number.  An
    {!Artemis_util.Strmap} probe keyed on the label's length and last
    character, settled by [String.equal].
    @raise Not_found for an unknown label. *)

(** {2 Schedules} *)

type schedule = (int * int) list
(** [(site, occurrence)] pairs, consumed head-first: fail at the
    [occurrence]-th hit (0-based) of [site], counting hits since the
    previous injection.  Each entry fires exactly once, so every run
    terminates once the schedule is exhausted. *)

val schedule_to_string : schedule -> string
(** ["3@0,7@2"]; the empty schedule prints as ["-"]. *)

val schedule_of_string : string -> (schedule, string) result

val replay_line : seed:int -> schedule -> string
(** The one-line reproducer: ["<seed>:<schedule>"]. *)

val parse_replay : string -> (int * schedule, string) result

(** {2 Single runs} *)

type violation = { oracle : string; detail : string }

type run_result = {
  seed : int;
  schedule : schedule;
  fired : (int * int) list;  (** schedule prefix that actually injected *)
  hits : int array;  (** probe hits per site over the whole run *)
  outcome : string;
  power_failures : int;
  digest : string;  (** hex MD5 of the rendered trace *)
  footprint : string;  (** rendered FRAM/RAM cell fingerprint *)
  violations : violation list;
}

val run_schedule : Scenario.t -> seed:int -> schedule -> run_result
(** Build the scenario fresh, run it with the schedule installed, then
    apply every oracle.  The footprint oracle needs a baseline and is
    applied by the campaign drivers, not here.  The run's counters,
    span and violation instants go to the context its device records
    into ({!Artemis.Device.obs}). *)

(** {2 Campaigns} *)

type campaign = {
  scenario : string;
  mode : string;  (** ["exhaustive"] or ["random"] *)
  depth : int;
  campaign_seed : int;
  baseline : run_result;  (** uninjected run: footprint + digest anchor *)
  runs : run_result list;
  covered : int list;  (** site ids that injected at least once *)
  shrunk : string option;
      (** minimal violating reproducer (replay line), when any run
          violated an oracle *)
}

val exhaustive : ?jobs:int -> Scenario.t -> seed:int -> depth:int -> campaign
(** Bounded-exhaustive.  Level 1 is complete over {e dynamic} crash
    instants: one run per (site, occurrence) pair the baseline run
    exhibits - every probed instruction execution gets crashed exactly
    once.  Levels 2..[depth] chain further occurrence-0 failures onto
    each level-1 instant ([site_count] more runs per schedule per
    level).

    [jobs] (default 1) fans the runs out over that many domains through
    {!Artemis.Obs.par_map}: every run builds its own device, a recording
    campaign gives every run its own [Obs] context and absorbs them back
    in run-id order, so the campaign record, JSON report and exported
    trace are byte-identical for every [jobs] value. *)

val random_campaign :
  ?jobs:int -> Scenario.t -> seed:int -> runs:int -> max_depth:int -> campaign
(** Seeded random schedules: run [i] draws its own seed, a depth in
    [1, max_depth] and per-entry sites/occurrences from a splitmix64
    stream split off the campaign generator at index [i]
    ({!Artemis.Prng.split}) - a pure function of [(seed, i)], so the
    whole campaign is reproducible from [seed], results are independent
    of [jobs] as in {!exhaustive}, and fan-out starts immediately with
    no sequential pre-draw or all-schedules materialisation.  On the
    first violating run the schedule is greedily shrunk (drop entries,
    then lower occurrences) to a minimal reproducer. *)

val total_violations : campaign -> int

val replay : Scenario.t -> line:string -> (run_result * bool, string) result
(** Re-run a reproducer line twice from scratch, after an uninjected
    baseline run for the footprint oracle; the boolean is whether the
    two trace digests are byte-identical (determinism check). *)

val unreproducible : ?jobs:int -> Scenario.t -> campaign -> run_result list
(** The campaign's determinism check: re-run every run of the campaign
    once from its seed and schedule, apply the footprint oracle against
    the campaign's own baseline, and return - in campaign order - every
    recorded run whose fresh {!run_result} differs from it in any field
    (trace digest, probe hits, outcome, violations, footprint, ...).
    [[]] means every run reproduced the record its report was built
    from.  One run per schedule, where {!replay} costs three; [jobs]
    (default 1) fans the re-runs out as in {!exhaustive}.  The scenario
    must be the one the campaign ran (engine included). *)

(** {2 Reports} *)

val campaign_to_json : campaign -> string
(** Hand-rendered JSON with a fixed key order, so reports diff cleanly. *)

val output_campaign_json : out_channel -> campaign -> unit
(** The same document streamed row by row to [oc]: a campaign-scale
    report is never held in memory as one string.  Byte-identical to
    {!campaign_to_json}. *)

val json_string : string -> string
(** One JSON string literal: {!Artemis.Json.quote}, the house escaper
    every report writer shares. *)

val campaign_summary : campaign -> string
(** Short human-readable summary (used by the CLI and the cram test). *)
