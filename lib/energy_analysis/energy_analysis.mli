(** ETAP-style static energy-admissibility analysis (PR 9).

    Bounds the worst-case cost of a {e single monitor call} per property
    before deployment, from three ingredients: the {!Artemis_fsm.Table}
    lowering's per-(state, event-kind) structural worst case (guard scan
    ops, fired-body ops, FRAM writes), the {!Artemis_device.Cost_model}
    cycle constants, and the deployment alternative's dispatch pricing.
    The bound composes with the capacitor/charging-policy profile to
    classify each property:

    - {b progresses}: the bound fits the charge level every reboot is
      guaranteed to start from;
    - {b marginal}: the bound fits a full charge but not the guaranteed
      reboot level (a harvester that stops at the turn-on threshold may
      need several attempts);
    - {b may livelock}: the bound exceeds the usable budget of a full
      charge, so the call can never commit and will retry forever.

    Soundness against the simulator is by construction: the runtime
    charges monitor work through the same {!dispatch_cost}/{!step_cost}
    functions and the same (ceiling) cycle conversion, and the bound
    adds the structural margin on top - the bound-domination QCheck
    harness in the test suite pins the contract across engines and
    injected-failure schedules. *)

open Artemis_util
module Cost_model = Artemis_device.Cost_model
module Device = Artemis_device.Device
module Capacitor = Artemis_energy.Capacitor
module Charging_policy = Artemis_energy.Charging_policy
module Table = Artemis_fsm.Table

(** {2 Deployment alternatives}

    Canonical definition of the paper's Section 7 implementation
    alternatives; [Runtime.monitor_deployment] re-exports it, so the
    simulator and this analysis can never price a deployment
    differently. *)

type deployment =
  | Separate_module
  | Inlined
  | External_wireless of { radio_power : Energy.power; round_trip : Time.t }

val deployment_label : deployment -> string

val dispatch_cost : Cost_model.t -> deployment -> Energy.power * Time.t
(** What the simulator charges once per monitor call. *)

val step_cost : Cost_model.t -> deployment -> Energy.power * Time.t
(** What the simulator charges per watching property step. *)

(** {2 Per-property bounds} *)

type bound = {
  b_property : string;
  b_worst_state : string;  (** ["-"] when no transition can ever fire *)
  b_worst_kind : string;  (** ["start"], ["end"] or ["-"] *)
  b_step_cycles : int;  (** flat per-property step constant *)
  b_guard_cycles : int;  (** structural margin: candidate guard scan *)
  b_body_cycles : int;  (** structural margin: worst fired body *)
  b_write_cycles : int;  (** structural margin: fired body's FRAM writes *)
  b_step_time : Time.t;
  b_step_energy : Energy.energy;  (** this property's share of one call *)
  b_call_time : Time.t;  (** dispatch + step: bound if deployed alone *)
  b_call_energy : Energy.energy;
}

val property_bound :
  ?deployment:deployment -> model:Cost_model.t -> Table.t -> bound
(** Bound one call of the lowered machine: the same [Table.t] the
    monitor runs ({!Artemis_monitor.Monitor.table}), or the one an OTA
    payload is deployed from. *)

val suite_call_bound :
  ?deployment:deployment -> model:Cost_model.t -> bound list -> Energy.energy
(** One dispatch plus every property's step share: the worst case of a
    single call against a whole deployed suite (every property may watch
    the same event). *)

(** {2 Charge budget and classification} *)

type budget = {
  usable : Energy.energy;  (** full charge minus the off threshold *)
  reboot : Energy.energy;  (** usable energy guaranteed after a recharge *)
  policy_label : string;
}

val budget : capacitor:Capacitor.t -> policy:Charging_policy.t -> budget
val budget_of_device : Device.t -> budget

type classification = Progresses | Marginal | May_livelock

val classify : budget -> bound -> classification
val classification_label : classification -> string

(** {2 Admission} *)

val admit :
  ?deployment:deployment ->
  model:Cost_model.t ->
  budget:budget ->
  Table.t list ->
  (unit, string) result
(** [Error reason] (prefixed ["energy-inadmissible: "]) if any lowered
    machine classifies as {!May_livelock}.  [Runtime] installs this as the
    adaptation validate step's admission check, so over-budget OTA
    updates are rejected on the wire-protocol path. *)

(** {2 Reports} *)

type entry = {
  e_origin : string;  (** ["deployed"] or ["update #N"] *)
  e_bound : bound;
  e_class : classification;
}

val analyze :
  ?deployment:deployment ->
  model:Cost_model.t ->
  budget:budget ->
  origin:string ->
  Table.t list ->
  entry list

val render_human :
  scenario:string ->
  deployment:deployment ->
  model:Cost_model.t ->
  budget:budget ->
  entry list ->
  Buffer.t ->
  unit

val render_json :
  scenario:string ->
  deployment:deployment ->
  model:Cost_model.t ->
  budget:budget ->
  entry list ->
  Buffer.t ->
  unit
(** Hand-rendered JSON with a fixed key order, one line. *)
