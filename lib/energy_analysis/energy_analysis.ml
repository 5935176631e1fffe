open Artemis_util
module Cost_model = Artemis_device.Cost_model
module Device = Artemis_device.Device
module Capacitor = Artemis_energy.Capacitor
module Charging_policy = Artemis_energy.Charging_policy
module Table = Artemis_fsm.Table

(* ------------------------------------------------------------------ *)
(* Deployment alternatives (Section 7).  This is the canonical type;
   Runtime re-exports it so the simulator and the static analysis price
   monitor calls from the same definition and can never drift. *)

type deployment =
  | Separate_module
  | Inlined
  | External_wireless of { radio_power : Energy.power; round_trip : Time.t }

let deployment_label = function
  | Separate_module -> "separate-module"
  | Inlined -> "inlined"
  | External_wireless _ -> "external-wireless"

(* (power, duration) the simulator charges once per monitor call. *)
let dispatch_cost model = function
  | Separate_module ->
      ( Cost_model.overhead_power model,
        Cost_model.cycles_to_time model
          model.Cost_model.artemis_monitor_dispatch_cycles )
  | Inlined -> (Cost_model.overhead_power model, Time.zero)
  | External_wireless { radio_power; round_trip } -> (radio_power, round_trip)

(* The flat on-device cycles of one watching property's step: inlined
   checks halve the separate module's per-property cycles, and an
   external monitor evaluates off-device, spending none. *)
let step_cycles model = function
  | Separate_module -> model.Cost_model.artemis_monitor_cycles_per_property
  | Inlined -> model.Cost_model.artemis_monitor_cycles_per_property / 2
  | External_wireless _ -> 0

(* (power, duration) the simulator charges per watching property step. *)
let step_cost model deployment =
  ( Cost_model.overhead_power model,
    Cost_model.cycles_to_time model (step_cycles model deployment) )

(* ------------------------------------------------------------------ *)
(* Per-property worst-case single-call bound *)

type bound = {
  b_property : string;
  b_worst_state : string;  (* "-" when no transition can ever fire *)
  b_worst_kind : string;  (* "start" | "end" | "-" *)
  b_step_cycles : int;  (* flat per-property step constant *)
  b_guard_cycles : int;  (* structural: candidate guard scan *)
  b_body_cycles : int;  (* structural: worst fired body *)
  b_write_cycles : int;  (* structural: FRAM writes of the fired body *)
  b_step_time : Time.t;
  b_step_energy : Energy.energy;  (* this property's share of one call *)
  b_call_time : Time.t;  (* dispatch + step: bound if deployed alone *)
  b_call_energy : Energy.energy;
}

(* Worst (state, kind) of a lowered machine under [model], weighing guard
   and body ops at [table_op_cycles] and FRAM writes at
   [nvm_write_cycles].  Structural cycles are an additive margin over the
   flat per-property constant the simulator charges: the simulator's
   charge can therefore never exceed the bound, while the bound tracks
   what the real MSP430 monitor would additionally pay to run the guard
   and body code. *)
let worst_structure model table =
  let open Cost_model in
  let best = ref (-1, (0, 0, 0, "-", "-")) in
  List.iter
    (fun (c : Table.step_cost) ->
      let guard_cy = c.Table.cost_guard_ops * model.table_op_cycles in
      let body_cy = c.Table.cost_body_ops * model.table_op_cycles in
      let write_cy = c.Table.cost_nvm_writes * model.nvm_write_cycles in
      let total = guard_cy + body_cy + write_cy in
      if total > fst !best then
        best :=
          ( total,
            ( guard_cy,
              body_cy,
              write_cy,
              c.Table.cost_state,
              if c.Table.cost_start then "start" else "end" ) ))
    (Table.step_costs table);
  snd !best

let property_bound ?(deployment = Separate_module) ~model table =
  let guard_cy, body_cy, write_cy, state, kind = worst_structure model table in
  let flat_cycles = step_cycles model deployment in
  (* an external monitor runs no guard or body code on the device *)
  let guard_cy, body_cy, write_cy =
    match deployment with
    | External_wireless _ -> (0, 0, 0)
    | Separate_module | Inlined -> (guard_cy, body_cy, write_cy)
  in
  let step_power, _ = step_cost model deployment in
  let step_time =
    Cost_model.cycles_to_time model
      (flat_cycles + guard_cy + body_cy + write_cy)
  in
  let step_energy = Energy.consumed step_power step_time in
  let dispatch_power, dispatch_time = dispatch_cost model deployment in
  let dispatch_energy =
    Energy.consumed dispatch_power dispatch_time
  in
  {
    b_property = Table.name table;
    b_worst_state = state;
    b_worst_kind = kind;
    b_step_cycles = flat_cycles;
    b_guard_cycles = guard_cy;
    b_body_cycles = body_cy;
    b_write_cycles = write_cy;
    b_step_time = step_time;
    b_step_energy = step_energy;
    b_call_time = Time.add dispatch_time step_time;
    b_call_energy = Energy.add dispatch_energy step_energy;
  }

(* One monitor call steps every property that watches the event, so the
   whole-suite worst case is one dispatch plus every property's step
   share. *)
let suite_call_bound ?(deployment = Separate_module) ~model bounds =
  let dispatch_power, dispatch_time = dispatch_cost model deployment in
  let dispatch_energy =
    Energy.consumed dispatch_power dispatch_time
  in
  List.fold_left
    (fun acc b -> Energy.add acc b.b_step_energy)
    dispatch_energy bounds

(* ------------------------------------------------------------------ *)
(* Charge budget *)

type budget = {
  usable : Energy.energy;  (* capacity - off threshold: best case *)
  reboot : Energy.energy;  (* guaranteed usable right after a recharge *)
  policy_label : string;
}

let budget ~capacitor ~policy =
  let usable = Capacitor.usable_budget capacitor in
  match policy with
  | Charging_policy.Fixed_delay _ ->
      (* recharges to full capacity *)
      { usable; reboot = usable; policy_label = "fixed-delay" }
  | Charging_policy.From_harvester _ ->
      (* recharges exactly to the turn-on threshold *)
      {
        usable;
        reboot =
          Energy.sub
            (Capacitor.on_threshold capacitor)
            (Capacitor.off_threshold capacitor);
        policy_label = "harvester";
      }

let budget_of_device device =
  budget ~capacitor:(Device.capacitor device) ~policy:(Device.policy device)

(* ------------------------------------------------------------------ *)
(* Classification *)

type classification = Progresses | Marginal | May_livelock

(* The one classification rule: one call of [energy] against a charge. *)
let classify_energy budget energy =
  if Energy.(budget.usable < energy) then May_livelock
  else if Energy.(budget.reboot < energy) then Marginal
  else Progresses

let classify budget bound = classify_energy budget bound.b_call_energy

let classification_label = function
  | Progresses -> "progresses"
  | Marginal -> "marginal"
  | May_livelock -> "may livelock"

(* ------------------------------------------------------------------ *)
(* Admission (used by Adapt.validate via Runtime): refuse any update
   whose properties could never complete a monitor call on one charge. *)

let uj e = Energy.to_uj e

let admit ?(deployment = Separate_module) ~model ~budget:b tables =
  let rec check = function
    | [] -> Ok ()
    | table :: rest -> (
        let bound = property_bound ~deployment ~model table in
        match classify b bound with
        | May_livelock ->
            Error
              (Printf.sprintf
                 "energy-inadmissible: property '%s' worst-case monitor-call \
                  bound %.3f uJ exceeds the usable charge budget %.3f uJ (may \
                  livelock)"
                 bound.b_property (uj bound.b_call_energy) (uj b.usable))
        | Progresses | Marginal -> check rest)
  in
  check tables

(* ------------------------------------------------------------------ *)
(* Report rendering *)

type entry = {
  e_origin : string;  (* "deployed" or "update #N" *)
  e_bound : bound;
  e_class : classification;
}

let analyze ?(deployment = Separate_module) ~model ~budget:b ~origin tables =
  List.map
    (fun table ->
      let bound = property_bound ~deployment ~model table in
      { e_origin = origin; e_bound = bound; e_class = classify b bound })
    tables

let render_human ~scenario ~deployment ~model ~budget:b entries buf =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "energy-admissibility report: %s\n" scenario;
  add "  deployment %s @ %d Hz; budget usable %.3f uJ, reboot %.3f uJ (%s)\n"
    (deployment_label deployment)
    model.Cost_model.mcu_frequency_hz (uj b.usable) (uj b.reboot)
    b.policy_label;
  let deployed = List.filter (fun e -> e.e_origin = "deployed") entries in
  let suite_bound =
    suite_call_bound ~deployment ~model
      (List.map (fun e -> e.e_bound) deployed)
  in
  add "  %-28s %-10s %-12s %10s %10s  %s\n" "property" "origin" "worst-case"
    "call-us" "call-uJ" "class";
  List.iter
    (fun e ->
      let bd = e.e_bound in
      add "  %-28s %-10s %-12s %10d %10.3f  %s\n" bd.b_property e.e_origin
        (if bd.b_worst_state = "-" then "-"
         else bd.b_worst_state ^ "/" ^ bd.b_worst_kind)
        (Time.to_us bd.b_call_time)
        (uj bd.b_call_energy)
        (classification_label e.e_class))
    entries;
  add "  deployed-suite call bound: %.3f uJ (%s)\n" (uj suite_bound)
    (classification_label (classify_energy b suite_bound))

let render_json ~scenario ~deployment ~model ~budget:b entries buf =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let deployed = List.filter (fun e -> e.e_origin = "deployed") entries in
  let suite_bound =
    suite_call_bound ~deployment ~model
      (List.map (fun e -> e.e_bound) deployed)
  in
  add "{\"scenario\": \"%s\", \"deployment\": \"%s\", \"mcu_hz\": %d, "
    scenario (deployment_label deployment) model.Cost_model.mcu_frequency_hz;
  add "\"budget\": {\"usable_uj\": %.3f, \"reboot_uj\": %.3f, \"policy\": \"%s\"}, "
    (uj b.usable) (uj b.reboot) b.policy_label;
  add "\"suite_call_bound_uj\": %.3f, \"properties\": [" (uj suite_bound);
  List.iteri
    (fun i e ->
      let bd = e.e_bound in
      if i > 0 then add ", ";
      add
        "{\"name\": \"%s\", \"origin\": \"%s\", \"worst_state\": \"%s\", \
         \"worst_kind\": \"%s\", \"step_cycles\": %d, \"guard_cycles\": %d, \
         \"body_cycles\": %d, \"write_cycles\": %d, \"call_us\": %d, \
         \"call_uj\": %.3f, \"class\": \"%s\"}"
        bd.b_property e.e_origin bd.b_worst_state bd.b_worst_kind
        bd.b_step_cycles bd.b_guard_cycles bd.b_body_cycles bd.b_write_cycles
        (Time.to_us bd.b_call_time)
        (uj bd.b_call_energy)
        (classification_label e.e_class))
    entries;
  add "]}\n"
