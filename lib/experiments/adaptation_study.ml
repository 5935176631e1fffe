open Artemis

(* Live property adaptation vs full reprogramming (PR 4).

   Table 3 credits ARTEMIS with "runtime adaptation": changing the
   deployed property suite without reflashing the device.  This study
   quantifies that claim on the health benchmark: each scheduled update
   is delivered over the BLE-class radio, staged in NVM and applied
   through the crash-atomic protocol, and we compare the measured
   delivery time/energy and end-to-end latency against the cost of
   shipping a whole firmware image over the same link - the only
   alternative on a device without the protocol. *)

type row = {
  label : string;
  update : Adapt.update;
  record : Runtime.adaptation_record;
  final_generation : int;
  final_monitors : string list;
  stats : Stats.t;
}

type study = {
  rows : row list;
  reprogram_bytes : int;
  reprogram_time : Time.t;
  reprogram_energy : Energy.energy;
}

(* A realistic MSP430-class monitor firmware image.  Reprogramming also
   loses all persistent monitor state (there is nothing to migrate
   into), which the adaptation path keeps. *)
let firmware_image_bytes = 16 * 1024

(* The same link model the runtime costs deliveries with. *)
let reprogram_cost () =
  let radio_power, time =
    Runtime.link_cost Runtime.default_external_wireless
      ~bytes:firmware_image_bytes
  in
  (time, Energy.consumed radio_power time)

let updates =
  [
    ( "tighten MITD window (5min -> 4min, attempts migrated)",
      Adapt.spec_update ~id:1
        "send: { MITD: 4min dpTask: accel onFail: restartPath maxAttempt: 3 \
         onFail: skipPath Path: 2; }" );
    ( "retire maxDuration, add maxTries on send",
      Adapt.spec_update ~id:2 ~remove:[ "maxDuration_send" ]
        "send: { maxTries: 8 onFail: skipPath; }" );
  ]

let run_update ~at (label, update) =
  let device = Config.device (Config.Intermittent (Time.of_min 1)) in
  let app, _handles = Health_app.make (Device.nvm device) in
  let suite = compile_and_deploy_exn device app Health_app.spec_text in
  let result =
    Runtime.run_instrumented ~adaptations:[ (at, update) ] device app suite
  in
  let record =
    match result.Runtime.adaptations with
    | [ r ] -> r
    | rs ->
        failwith
          (Printf.sprintf "adaptation study: expected one record, got %d"
             (List.length rs))
  in
  {
    label;
    update;
    record;
    final_generation = result.Runtime.final_generation;
    final_monitors =
      List.map Monitor.name (Suite.monitors result.Runtime.final_suite);
    stats = result.Runtime.stats;
  }

let run ?(at = 40) () =
  let reprogram_time, reprogram_energy = reprogram_cost () in
  {
    rows = List.map (run_update ~at) updates;
    reprogram_bytes = firmware_image_bytes;
    reprogram_time;
    reprogram_energy;
  }

let latency (r : row) =
  Time.sub r.record.Runtime.completed_at r.record.Runtime.first_attempt_at

let applied (r : row) =
  match r.record.Runtime.outcome with
  | Runtime.Update_applied _ -> true
  | Runtime.Update_rejected _ | Runtime.Update_unfinished -> false

let energy_ratio s (r : row) =
  Energy.to_mj s.reprogram_energy
  /. Float.max 1e-9 (Energy.to_mj r.record.Runtime.radio_energy)

let render s =
  let table =
    Table.create
      ~headers:
        [ "update"; "wire"; "radio time"; "radio energy"; "latency"; "vs reprogram" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.label;
          Printf.sprintf "%d B" r.record.Runtime.wire_bytes;
          Printf.sprintf "%.1f ms" (Time.to_ms_f r.record.Runtime.radio_time);
          Printf.sprintf "%.3f mJ" (Energy.to_mj r.record.Runtime.radio_energy);
          Printf.sprintf "%.1f ms" (Time.to_ms_f (latency r));
          Printf.sprintf "%.0fx less energy" (energy_ratio s r);
        ])
    s.rows;
  Printf.sprintf
    "%s\nfull reprogram baseline: %d B image, %.1f ms radio, %.2f mJ (and all \
     persistent monitor state lost)\n"
    (Table.render table) s.reprogram_bytes
    (Time.to_ms_f s.reprogram_time)
    (Energy.to_mj s.reprogram_energy)
