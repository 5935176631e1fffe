open Artemis
module Par = Artemis_util.Par

type row = {
  harvest_uw : float;
  mean_delay : Time.t option;
  artemis : Stats.t;
  mayfly : Stats.t;
}

(* Unlike the fixed-delay policy (which recharges to capacity), the
   harvester policy brings the capacitor back to the turn-on threshold
   only; the threshold must therefore sit above the hungriest task's
   demand (accel, 17.28 mJ) or the device crash-loops on wake-up. *)
let study_capacitor () =
  Capacitor.create
    ~capacity:(Energy.mj 18.5)
    ~on_threshold:(Energy.mj 18.45)
    ~off_threshold:(Energy.mj 1.0)
    ()

let device ~avg_uw =
  Device.create
    ~capacitor:(study_capacitor ())
    ~policy:(Charging_policy.From_harvester (Harvester.duty_cycle ~avg_uw))
    ~horizon:(Time.of_min 720) ()

let mean_charging_delay dev =
  let delays =
    Log.events (Device.log dev)
    |> List.filter_map (fun (e : Event.timed) ->
           match e.Event.event with
           | Event.Reboot { charging_delay } -> Some charging_delay
           | _ -> None)
  in
  match delays with
  | [] -> None
  | delays ->
      Some
        (Time.divide
           (List.fold_left Time.add Time.zero delays)
           (List.length delays))

let run_system ~avg_uw system =
  let dev = device ~avg_uw in
  let app, _ = Health_app.make (Device.nvm dev) in
  let stats =
    match system with
    | `Artemis ->
        let suite = compile_and_deploy_exn dev app Health_app.spec_text in
        Runtime.run dev app suite
    | `Mayfly ->
        Mayfly.run dev app
          (Mayfly.annotations_of_spec
             (Spec.Parser.parse_exn Health_app.mayfly_spec_text))
  in
  (stats, dev)

let run ?(rates_uw = [ 1000.; 200.; 100.; 65.; 50.; 40. ]) ?(jobs = 1) () =
  Par.map_list ~jobs
    (fun harvest_uw ->
      let artemis, artemis_dev = run_system ~avg_uw:harvest_uw `Artemis in
      let mayfly, _ = run_system ~avg_uw:harvest_uw `Mayfly in
      { harvest_uw; mean_delay = mean_charging_delay artemis_dev; artemis; mayfly })
    rates_uw

let outcome_cell (s : Stats.t) =
  match s.Stats.outcome with
  | Stats.Completed -> Printf.sprintf "completed in %.1f min" (Config.minutes s)
  | Stats.Did_not_finish _ -> "DNF (non-termination)"

let render rows =
  let table =
    Table.create
      ~headers:
        [ "avg harvest"; "mean charging delay"; "ARTEMIS"; "Mayfly" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Printf.sprintf "%.0f uW" r.harvest_uw;
          (match r.mean_delay with
          | None -> "none (no failures)"
          | Some d -> Printf.sprintf "%.1f min" (Time.to_min_f d));
          outcome_cell r.artemis;
          outcome_cell r.mayfly;
        ])
    rows;
  Table.render table
