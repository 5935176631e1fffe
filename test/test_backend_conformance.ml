(* Backend conformance battery (PR 10): one functorized set of checks
   instantiated for every registered task-execution backend.  The
   contract a backend signs up for by entering [Artemis.Backends.all]:

   - crash-anywhere safety: a power failure at ANY probed instant of a
     run (depth-1 exhaustive fault injection) leaves committed
     application state a task-atomic prefix, replays monitor calls
     faithfully and leaks no persistent cells;
   - verdict equality: the monitor verdict/action stream equals the
     immortal reference backend's on the same scenario - monitoring is
     backend-independent;
   - WAR cleanliness: the backend's unit-of-re-execution surface has no
     write-after-read hazards on the shipped scenarios;
   - determinism: two identical runs produce byte-identical trace
     digests and cell fingerprints. *)

open Artemis
module F = Artemis_faultsim.Faultsim
module Matrix = Artemis_faultsim.Matrix
module Scenario = Artemis_faultsim.Scenario
module War = Consistency.War

module Battery (B : sig
  val b : Backend.b
end) =
struct
  let name = B.b.Backend.name

  let scenario =
    Scenario.with_backend B.b
      ~name:("conformance-" ^ name)
      ~description:("quickstart under the " ^ name ^ " backend")
      Scenario.quickstart

  (* depth-1 exhaustive: every probed instant of the baseline run gets
     crashed exactly once; all six oracles must stay green, and the
     backend's own protocol sites (if any) must actually be covered *)
  let test_crash_anywhere () =
    let c = F.exhaustive scenario ~seed:42 ~depth:1 in
    Alcotest.(check string)
      "baseline completes" "completed" c.F.baseline.F.outcome;
    Alcotest.(check int) "zero violations" 0 (F.total_violations c);
    Alcotest.(check bool) "no reproducer" true (c.F.shrunk = None);
    List.iter
      (fun (site : Site.t) ->
        Alcotest.(check bool)
          ("protocol site covered: " ^ Site.label site)
          true
          (List.mem (site :> int) c.F.covered))
      B.b.Backend.injection_sites

  (* the semantic stream must equal the immortal reference's, on a
     scenario that completes and on one that ends in a freshness DNF *)
  let test_verdict_equality () =
    List.iter
      (fun base ->
        let report =
          Matrix.run ~backends:[ Backend.immortal; B.b ] base ~seed:42
        in
        Alcotest.(check bool)
          (base.Scenario.name ^ ": verdict stream equals immortal")
          true report.Matrix.agreement)
      [ Scenario.quickstart; Scenario.stale_read ]

  (* the backend's re-execution units (every backend re-executes whole
     task bodies, [Task.bodies]) must be WAR-clean on the shipped apps:
     re-executing after a crash can never observe its own write *)
  let test_war_clean () =
    List.iter
      (fun base ->
        let built = base.Scenario.build ~engine:None ~seed:42 in
        let report =
          War.analyze_bodies
            (Device.nvm built.Scenario.device)
            (Task.bodies built.Scenario.app)
        in
        Alcotest.(check (list string))
          (base.Scenario.name ^ ": no WAR hazards")
          []
          (List.map (fun h -> h.War.haz_cell) report.War.hazards))
      [ Scenario.quickstart; Scenario.health ]

  (* same seed, same schedule: byte-identical trace digest and cell
     fingerprint *)
  let test_deterministic () =
    let r1 = F.run_schedule scenario ~seed:42 [] in
    let r2 = F.run_schedule scenario ~seed:42 [] in
    Alcotest.(check string) "digest" r1.F.digest r2.F.digest;
    Alcotest.(check string) "footprint" r1.F.footprint r2.F.footprint

  let tests =
    [
      (name ^ ": crash anywhere, all oracles green", `Quick,
       test_crash_anywhere);
      (name ^ ": verdict stream equals immortal", `Quick,
       test_verdict_equality);
      (name ^ ": WAR-clean re-execution units", `Quick, test_war_clean);
      (name ^ ": identical runs are byte-identical", `Quick,
       test_deterministic);
    ]
end

(* Protocol cycles are priced by the run's cost model: at 8 MHz a
   900-cycle snapshot is 112.5 us, which [Cost_model.cycles_to_time]
   rounds up to 113 us.  A backend pricing its cycles at a private
   1 MHz would charge 900 us instead. *)
let model_8mhz = { Cost_model.default with mcu_frequency_hz = 8_000_000 }
let cycles_us n = Time.to_us (Cost_model.cycles_to_time model_8mhz n)

(* Runtime_work of an unmonitored two-task run on continuous power *)
let runtime_work_us backend =
  let device = Helpers.powered_device () in
  let app =
    Helpers.one_path_app
      [ Helpers.simple_task ~name:"a" (); Helpers.simple_task ~name:"b" () ]
  in
  let config = { Runtime.default_config with cost_model = model_8mhz } in
  let stats =
    Runtime.run ~config ~backend device app
      (Suite.create (Device.nvm device) [])
  in
  Alcotest.(check bool) "completed" true (Helpers.completed stats);
  Time.to_us stats.Stats.runtime_overhead

let protocol_work_us backend =
  runtime_work_us backend - runtime_work_us Backend.immortal

let test_checkpoint_priced_by_run_model () =
  Alcotest.(check int) "900 cycles at 8 MHz" 113 (cycles_us 900);
  (* one restore on the cold boot entry, one snapshot per commit *)
  Alcotest.(check int) "restore + 2 snapshots"
    (cycles_us 600 + (2 * cycles_us 900))
    (protocol_work_us Checkpoint.backend)

let test_alpaca_priced_by_run_model () =
  (* each commit logs, then swaps, one cell: the runtime's cursor *)
  Alcotest.(check int) "2 x (log + swap)"
    (2 * (cycles_us (60 + 40) + cycles_us (40 + 30)))
    (protocol_work_us Alpaca.backend)

let test_ink_priced_by_run_model () =
  (* one kernel dispatch before each task transaction *)
  Alcotest.(check int) "2 x 320-cycle dispatch" 80
    (protocol_work_us Ink.backend)

let test_mayfly_priced_by_run_model () =
  (* one fused in-loop check (one property) sealing each commit: 150
     cycles at 8 MHz is 18.75 us, rounded up to 19 *)
  Alcotest.(check int) "2 x 150-cycle check" 38
    (protocol_work_us Mayfly.backend)

let test_runtime_priced_by_run_model () =
  (* the runtime's own bookkeeping: a start and an end event per task *)
  Alcotest.(check int) "4 x 400-cycle event" 200
    (runtime_work_us Backend.immortal)

(* every backend the registry knows answers the same battery; if a PR
   registers a sixth backend it is conformance-tested automatically *)
let suite =
  List.concat_map
    (fun b ->
      let module M = Battery (struct
        let b = b
      end) in
      M.tests)
    Backends.all
  @ [
      ("checkpoint: priced by the run's cost model", `Quick,
       test_checkpoint_priced_by_run_model);
      ("alpaca: priced by the run's cost model", `Quick,
       test_alpaca_priced_by_run_model);
      ("ink: priced by the run's cost model", `Quick,
       test_ink_priced_by_run_model);
      ("mayfly: priced by the run's cost model", `Quick,
       test_mayfly_priced_by_run_model);
      ("immortal: runtime bookkeeping priced by the run's cost model",
       `Quick, test_runtime_priced_by_run_model);
    ]

let () =
  assert (List.length Backends.all = 5)
