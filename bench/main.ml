(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) on the simulated testbed, times the parallel
   campaign runner's wall clock at 1/2/4/8 jobs, then times the kernels
   behind the figures - monitor engines, the observability and
   freshness contracts, OTA adaptation, the runtime matrix - with one
   sampler, [paired_medians].

   Absolute numbers come from the simulator's calibrated cost model; the
   reproduction target is the paper's shape: who wins, by how much, where
   the crossovers are.  EXPERIMENTS.md records paper-vs-measured.

   Usage: main.exe [--fast] [--json FILE] [--skip-reproduce]
     --fast            trim rounds, iterations and sweep sizes (CI smoke run)
     --json FILE       write machine-readable results (kernel timings,
                       engine speedups, scalability sweeps) to FILE
     --skip-reproduce  skip the figure/table regeneration *)

open Artemis_experiments

let section title body =
  Printf.printf "\n=== %s ===\n%s\n" title body;
  flush stdout

let reproduce_all () =
  section "Figure 12: total execution time vs charging time (1-10 min)"
    (Fig12.render (Fig12.run ()));
  section "Figure 13: ARTEMIS prevents non-termination (6 min charging)"
    (Fig13.render (Fig13.run ()));
  let fig14 = Fig14.run () in
  section "Figure 14: execution time on continuous power (seconds)"
    (Fig14.render fig14);
  section "Figure 15: overhead breakdown on continuous power (milliseconds)"
    (Fig14.render_overheads fig14);
  section "Figure 16: energy consumption per completed run"
    (Fig16.render (Fig16.run ()));
  section "Table 2: memory requirements (bytes)" (Table2.render (Table2.run ()));
  section "Table 3: feature comparison with prior art" (Table3.render ());
  section
    "Ablation A: monitor deployment alternatives (Section 7), health benchmark"
    (Ablation.render_deployments (Ablation.deployments ()));
  section "Ablation B: collect-counter semantics (DESIGN.md decision 1)"
    (Ablation.render_collect (Ablation.collect_semantics ()));
  section
    "Baseline: checkpoint-based system (TICS-style) on the benchmark workload"
    (Baseline_checkpoint.render (Baseline_checkpoint.run ()));
  section "Timekeeper quality vs property enforcement (6 min charging)"
    (Timekeeper_sweep.render (Timekeeper_sweep.run ()));
  section "Harvester study: emergent charging delays (duty-cycled harvester)"
    (Harvester_study.render (Harvester_study.run ()));
  section "Scalability: monitor overhead vs deployed property count (P3)"
    (Scalability.render (Scalability.run ()));
  section "Scalability: non-watching properties (charged only when watching)"
    (Scalability.render_non_watching (Scalability.run_non_watching ()));
  section "Yield study: reactive soil station, 20 rounds per harvest level"
    (Yield_study.render (Yield_study.run ()));
  section "Adaptation study: live property updates vs full reprogramming"
    (Adaptation_study.render (Adaptation_study.run ()))

(* --- engine comparison kernels (the interpreted reference AST walker vs
   the deployed flat-table engine) --- *)

module A = Artemis
module Interp = A.Fsm.Interp
module Table = A.Fsm.Table

(* a synthetic trace over the benchmark's real task set; every end event
   carries the payloads any machine might read *)
let kernel_trace =
  let tasks =
    [ "bodyTemp"; "calcAvg"; "heartRate"; "accel"; "classify"; "micSense";
      "filter"; "send" ]
  in
  List.concat
    (List.mapi
       (fun i task ->
         let ts n = A.Time.of_ms (200 * ((2 * i) + n)) in
         [
           { Interp.kind = Interp.Start; task; timestamp = ts 0; path = 1;
             dep_data = []; energy_mj = 20. };
           { Interp.kind = Interp.End; task; timestamp = ts 1; path = 1;
             dep_data = [ ("avgTemp", 36.5) ]; energy_mj = 19. };
         ])
       tasks)

(* per-machine stepping: one benchmark machine, memory-backed stores.
   Arrays and counted loops, not List.iter2: the engines under test run
   in the tens of nanoseconds per step, so the harness must not spend a
   pointer chase per machine. *)
let fsm_step_kernels () =
  let machines = Scalability.replicated_machines 1 in
  let tables = List.map Table.compile machines in
  let machines_a = Array.of_list machines in
  let tables_a = Array.of_list tables in
  let istores = Array.of_list (List.map Interp.memory_store machines) in
  let tinsts = Array.of_list (List.map Table.instance tables) in
  let trace = Array.of_list kernel_trace in
  let nev = Array.length trace and nm = Array.length machines_a in
  let interp () =
    for e = 0 to nev - 1 do
      let ev = trace.(e) in
      for j = 0 to nm - 1 do
        ignore (Interp.step machines_a.(j) istores.(j) ev)
      done
    done
  in
  let tbl () =
    for e = 0 to nev - 1 do
      let ev = trace.(e) in
      for j = 0 to nm - 1 do
        ignore (Table.step tables_a.(j) tinsts.(j) ev)
      done
    done
  in
  (interp, tbl)

(* suite-level delivery at the paper's 8x replication: every event steps
   all 64 monitors, as the runtime's callMonitor thread does, under the
   seed design's interpreted machines and under the deployed table
   engine *)
let dispatch8_kernels () =
  let machines = Scalability.replicated_machines 8 in
  let s_interp =
    Artemis_monitor.Suite.create ~engine:A.Monitor.Interpreted (A.Nvm.create ())
      machines
  in
  let s_tbl =
    Artemis_monitor.Suite.create ~engine:A.Monitor.Table (A.Nvm.create ())
      machines
  in
  let trace = Array.of_list kernel_trace in
  let nev = Array.length trace in
  let interp () =
    for e = 0 to nev - 1 do
      ignore (A.Suite.step_all s_interp trace.(e))
    done
  in
  let tbl () =
    for e = 0 to nev - 1 do
      ignore (A.Suite.step_all s_tbl trace.(e))
    done
  in
  (interp, tbl)

(* observability disabled-overhead contract: the dispatch8 kernel under
   the default engine, delivering each event to all 64 monitors, with
   the metrics registry off (the default) and on.  The on/off delta
   prices the counter bumps. *)
let obs_kernels () =
  let machines = Scalability.replicated_machines 8 in
  let mk () = Artemis_monitor.Suite.create (A.Nvm.create ()) machines in
  let s_off = mk () and s_on = mk () in
  let trace = Array.of_list kernel_trace in
  let nev = Array.length trace in
  let off () =
    for e = 0 to nev - 1 do
      ignore (A.Suite.step_all s_off trace.(e))
    done
  in
  (* the suites' stores record into this domain's current context *)
  let obs = A.Obs.current () in
  let on () =
    A.Obs.set_metrics obs true;
    for e = 0 to nev - 1 do
      ignore (A.Suite.step_all s_on trace.(e))
    done;
    A.Obs.set_metrics obs false
  in
  (off, on)

(* The bench's one timer.  The contract numbers are *ratios* of
   same-scale kernels, and the ratio of two independently fitted
   per-kernel estimates drifts more than the quantities under test:
   sequential OLS fits reported 5-22% phantom obs overhead on a delta
   that interleaving shows is under 2%, and swung one engine's fsm-step
   by 40% between runs while another held still.  So every kernel is
   timed in a set: alternating rounds over the same kernels, median
   across rounds - frequency and GC drift then land on all sides of each
   comparison equally.  Each kernel belongs to exactly one set. *)
let paired_medians ~rounds ~iters kernels =
  let n = Array.length kernels in
  let sample f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9
  in
  for _ = 1 to max 1 (iters / 10) do
    Array.iter (fun f -> f ()) kernels
  done;
  let samples = Array.make_matrix n rounds 0. in
  for r = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      samples.(k).(r) <- sample kernels.(k)
    done
  done;
  Array.map
    (fun row ->
      let b = Array.copy row in
      Array.sort compare b;
      b.(rounds / 2))
    samples

let measure_obs_paired ~fast () =
  let off, on = obs_kernels () in
  (* CI gates this ratio in fast mode, where five rounds let host-speed
     phases swing a ~1% delta past the 10% gate in either direction; fast
     mode keeps the full round count and trims only the iterations *)
  let rounds = 11 in
  let iters = if fast then 2_000 else 10_000 in
  match paired_medians ~rounds ~iters [| off; on |] with
  | [| o; n |] -> (o, n)
  | _ -> assert false

(* input-freshness oracle overhead (PR 7): the same depth-1 exhaustive
   campaign with and without the tracker attached.  quickstart-fresh is
   quickstart plus the freshness tracker on the record chokepoint, so
   the paired ratio prices the oracle's stamp/check/violation work on
   the campaign hot loop - the acceptance gate is <= 5%. *)
let freshness_kernels () =
  let module F = Artemis_faultsim.Faultsim in
  let module S = Artemis_faultsim.Scenario in
  let plain () = ignore (F.exhaustive S.quickstart ~seed:42 ~depth:1) in
  let fresh () = ignore (F.exhaustive S.quickstart_fresh ~seed:42 ~depth:1) in
  (plain, fresh)

let measure_freshness_paired ~fast () =
  let plain, fresh = freshness_kernels () in
  (* The quantity gated in CI is the ratio of two ~10 ms campaigns, so
     even fast mode keeps the full sampling budget (~2 s total): at
     rounds=5/iters=3 the paired median still swung about +-4 pp,
     straddling the 5% gate. *)
  ignore fast;
  let rounds = 15 and iters = 30 in
  match paired_medians ~rounds ~iters [| plain; fresh |] with
  | [| p; f |] -> (p, f)
  | _ -> assert false

type engine_paired = { pair : string; interpreted_ns : float; table_ns : float }

let measure_engines_paired ~fast () =
  let rounds = if fast then 5 else 11 in
  let iters = if fast then 500 else 3_000 in
  let measure pair (i, t) =
    match paired_medians ~rounds ~iters [| i; t |] with
    | [| i_ns; t_ns |] -> { pair; interpreted_ns = i_ns; table_ns = t_ns }
    | _ -> assert false
  in
  [
    measure "engine/fsm-step" (fsm_step_kernels ());
    measure "engine/dispatch8" (dispatch8_kernels ());
  ]

(* the live-adaptation hot path (PR 4): deliver one property update to a
   freshly deployed health suite - deserialize, validate against the app,
   lower the replacement, migrate persistent state, flip generations *)
let adapt_apply_kernel () =
  let nvm0 = A.Nvm.create () in
  let app, _ = A.Health_app.make nvm0 in
  let machines = A.compile_exn ~app A.Health_app.spec_text in
  let update =
    A.Adapt.spec_update ~id:1 ~remove:[ "maxDuration_send" ]
      "send: { MITD: 4min dpTask: accel onFail: restartPath maxAttempt: 3 \
       onFail: skipPath Path: 2; }"
  in
  fun () ->
    let nvm = A.Nvm.create () in
    let suite = Artemis_monitor.Suite.create nvm machines in
    A.Suite.hard_reset suite;
    let mgr = A.Adapt.create nvm ~app suite in
    ignore (A.Adapt.stage mgr update);
    match A.Adapt.apply mgr with
    | A.Adapt.Applied _ -> ()
    | A.Adapt.Idle | A.Adapt.Rejected _ -> assert false

(* the static energy pass: bound one monitor call against the whole
   health suite - the cost an OTA validate pays per admission check.
   The properties are lowered at set-up, because validate hands the
   admission gate the tables it has already lowered for deployment. *)
let energy_bound_kernel () =
  let nvm = A.Nvm.create () in
  let app, _ = A.Health_app.make nvm in
  let tables =
    List.map Table.compile (A.compile_exn ~app A.Health_app.spec_text)
  in
  let model = A.Cost_model.default in
  fun () ->
    ignore
      (A.Energy_analysis.suite_call_bound ~model
         (List.map (A.Energy_analysis.property_bound ~model) tables))

(* the runtime matrix: quickstart under all five task backends with
   verdict-stream comparison - the differential conformance check a
   release pays per scenario.  Agreement is asserted, so a semantic
   divergence fails the bench rather than skewing the number. *)
let matrix_compare_kernel () =
  let r =
    Artemis_faultsim.Matrix.run Artemis_faultsim.Scenario.quickstart ~seed:42
  in
  assert r.Artemis_faultsim.Matrix.agreement

(* the kernels no contract compares, timed as one set: an OTA update
   pays adapt-apply and the energy bound, a release the matrix *)
let measure_release_paired ~fast () =
  let rounds = if fast then 5 else 11 in
  let iters = if fast then 50 else 300 in
  match
    paired_medians ~rounds ~iters
      [| adapt_apply_kernel (); energy_bound_kernel (); matrix_compare_kernel |]
  with
  | [| adapt; energy; matrix |] -> (adapt, energy, matrix)
  | _ -> assert false

(* --- parallel campaign runner (PR 5): wall-clock of the depth-2
   quickstart exhaustive campaign at 1/2/4/8 worker domains.  Every
   jobs setting must produce a report byte-identical to sequential -
   the kernel asserts it, so a determinism regression fails the bench
   rather than silently skewing the numbers. *)

type par_row = { pjobs : int; wall_s : float; identical : bool }

let par_campaign ~fast () =
  let depth = if fast then 1 else 2 in
  let timed jobs =
    let t0 = Unix.gettimeofday () in
    let c =
      Artemis_faultsim.Faultsim.exhaustive ~jobs
        Artemis_faultsim.Scenario.quickstart ~seed:42 ~depth
    in
    (c, Unix.gettimeofday () -. t0)
  in
  let c1, w1 = timed 1 in
  let base_json = Artemis_faultsim.Faultsim.campaign_to_json c1 in
  let rows =
    { pjobs = 1; wall_s = w1; identical = true }
    :: List.map
         (fun jobs ->
           let c, w = timed jobs in
           {
             pjobs = jobs;
             wall_s = w;
             identical =
               String.equal base_json
                 (Artemis_faultsim.Faultsim.campaign_to_json c);
           })
         [ 2; 4; 8 ]
  in
  (depth, List.length c1.Artemis_faultsim.Faultsim.runs, rows)

let print_par_campaign (depth, nruns, rows) =
  Printf.printf
    "\n=== par-campaign: quickstart depth-%d (%d runs), %d core(s) ===\n" depth
    nruns
    (Artemis.Par.recommended_jobs ());
  let w1 = (List.hd rows).wall_s in
  List.iter
    (fun r ->
      Printf.printf "jobs %d: %6.3f s  (%.2fx)%s\n" r.pjobs r.wall_s
        (if r.wall_s > 0. then w1 /. r.wall_s else 0.)
        (if r.identical then "" else "  REPORT MISMATCH"))
    rows;
  if List.for_all (fun r -> r.identical) rows then
    print_endline "report byte-identical across all job counts"
  else begin
    prerr_endline "par-campaign: parallel report differs from sequential";
    exit 1
  end;
  flush stdout

(* --- machine-readable output (hand-rolled JSON; no deps) --- *)

let json_of_engine (e : engine_paired) =
  Printf.sprintf
    {|    %S: { "interpreted_ns": %.0f, "table_ns": %.0f, "speedup": %.2f }|}
    e.pair e.interpreted_ns e.table_ns
    (e.interpreted_ns /. e.table_ns)

let json_of_scalability rows =
  String.concat ",\n"
    (List.map
       (fun (r : Scalability.row) ->
         Printf.sprintf
           {|    { "copies": %d, "monitors": %d, "monitor_ms": %.3f, "app_s": %.3f, "monitor_fram": %d }|}
           r.Scalability.copies r.Scalability.monitors r.Scalability.monitor_ms
           r.Scalability.app_s r.Scalability.monitor_fram)
       rows)

let json_of_non_watching rows =
  String.concat ",\n"
    (List.map
       (fun (r : Scalability.non_watching_row) ->
         Printf.sprintf
           {|    { "extra": %d, "monitors": %d, "monitor_ms": %.3f, "monitor_fram": %d }|}
           r.Scalability.extra r.Scalability.total_monitors
           r.Scalability.nw_monitor_ms r.Scalability.nw_monitor_fram)
       rows)

(* Every timed kernel under its [engine/] name, sorted: identical runs
   diff cleanly and readers of older snapshots find the same keys. *)
let json_of_kernels ~engines ~obs:(off, on) ~freshness:(plain, fresh)
    ~release:(adapt, energy, matrix) =
  List.concat_map
    (fun e ->
      [ (e.pair ^ "-interpreted", e.interpreted_ns);
        (e.pair ^ "-table", e.table_ns) ])
    engines
  @ [
      ("engine/obs-dispatch8-off", off);
      ("engine/obs-dispatch8-on", on);
      ("engine/faultsim-depth1-exhaustive", plain);
      ("engine/faultsim-depth1-fresh", fresh);
      ("engine/adapt-apply", adapt);
      ("engine/energy-bound-health", energy);
      ("engine/matrix-compare", matrix);
    ]
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, ns) -> Printf.sprintf {|    %S: %.0f|} name ns)
  |> String.concat ",\n"

let json_of_obs (off, on) =
  if off > 0. then
    Printf.sprintf
      {|  "obs": { "off_ns": %.0f, "on_ns": %.0f, "overhead_pct": %.2f }|}
      off on
      ((on -. off) /. off *. 100.)
  else {|  "obs": null|}

let json_of_freshness (plain, fresh) =
  if plain > 0. then
    Printf.sprintf
      {|  "freshness": { "plain_campaign_ns": %.0f, "fresh_campaign_ns": %.0f, "overhead_pct": %.2f }|}
      plain fresh
      ((fresh -. plain) /. plain *. 100.)
  else {|  "freshness": null|}

let json_of_par (depth, nruns, rows) =
  let w1 = (List.hd rows).wall_s in
  let jobs_json =
    String.concat ",\n"
      (List.map
         (fun r ->
           Printf.sprintf
             {|      { "jobs": %d, "wall_s": %.3f, "speedup": %.2f, "identical": %b }|}
             r.pjobs r.wall_s
             (if r.wall_s > 0. then w1 /. r.wall_s else 0.)
             r.identical)
         rows)
  in
  Printf.sprintf
    {|  "par_campaign": {
    "scenario": "quickstart", "depth": %d, "runs": %d, "cores": %d,
    "jobs": [
%s
    ]
  }|}
    depth nruns
    (Artemis.Par.recommended_jobs ())
    jobs_json

let write_json ~file ~obs ~freshness ~release ~engines ~scalability
    ~non_watching ~par =
  let oc = open_out file in
  Printf.fprintf oc
    {|{
  "bench": "alpaca checkpoint-free backend + differential runtime matrix (PR10)",
  "kernels_ns": {
%s
  },
%s,
%s,
%s,
  "engine_kernels": {
%s
  },
  "scalability": [
%s
  ],
  "non_watching": [
%s
  ]
}
|}
    (json_of_kernels ~engines ~obs ~freshness ~release)
    (json_of_obs obs)
    (json_of_freshness freshness)
    (json_of_par par)
    (String.concat ",\n" (List.map json_of_engine engines))
    (json_of_scalability scalability)
    (json_of_non_watching non_watching);
  close_out oc;
  Printf.printf "\nwrote %s\n" file

let () =
  let fast = ref false and json = ref None and skip_reproduce = ref false in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
        fast := true;
        parse rest
    | "--skip-reproduce" :: rest ->
        skip_reproduce := true;
        parse rest
    | "--json" :: file :: rest ->
        json := Some file;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %S\nusage: %s [--fast] [--json FILE] [--skip-reproduce]\n"
          arg Sys.argv.(0);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (!fast || !skip_reproduce) then reproduce_all ();
  let par = par_campaign ~fast:!fast () in
  print_par_campaign par;
  let engines = measure_engines_paired ~fast:!fast () in
  List.iter
    (fun e ->
      Printf.printf
        "%s (paired): interpreted %.0f / table %.0f ns; table %.2fx \
         interpreted\n"
        e.pair e.interpreted_ns e.table_ns
        (e.interpreted_ns /. e.table_ns))
    engines;
  let obs = measure_obs_paired ~fast:!fast () in
  (let off, on = obs in
   Printf.printf "obs paired off/on: %.0f / %.0f ns (%+.2f%%)\n" off on
     ((on -. off) /. off *. 100.));
  let freshness = measure_freshness_paired ~fast:!fast () in
  (let plain, fresh = freshness in
   Printf.printf "freshness paired plain/fresh campaign: %.0f / %.0f ns (%+.2f%%)\n"
     plain fresh
     ((fresh -. plain) /. plain *. 100.));
  let release = measure_release_paired ~fast:!fast () in
  (let adapt, energy, matrix = release in
   Printf.printf
     "release paired adapt-apply/energy-bound-health/matrix-compare: %.0f / \
      %.0f / %.0f ns\n"
     adapt energy matrix);
  match !json with
  | None -> ()
  | Some file ->
      let factors = if !fast then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
      let extras = if !fast then [ 0; 8 ] else [ 0; 8; 32; 128 ] in
      let scalability = Scalability.run ~factors () in
      let non_watching = Scalability.run_non_watching ~extras () in
      write_json ~file ~obs ~freshness ~release ~engines ~scalability
        ~non_watching ~par
