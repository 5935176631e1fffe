open Artemis

type built = {
  device : Device.t;
  app : Task.app;
  suite : Suite.t;
  machines : Fsm.Ast.machine list;
  tables : Fsm.Table.t list;
  config : Runtime.config;
  adaptations : (int * Adapt.update) list;
  freshness : Consistency.Freshness.t option;
  backend : Backend.b;
}

type t = {
  name : string;
  description : string;
  build : engine:Monitor.engine option -> seed:int -> built;
}

(* A scenario's property spec and its lowering, a once-cell the scenario
   owns.  The first build parses the spec, validates it against that
   build's app and lowers it; every later build, on any domain, deploys
   from the same immutable tables.  Two domains racing on the first
   build both lower, and both keep the one value the CAS stored. *)
type spec = {
  text : string;
  lowered : (Fsm.Ast.machine list * Fsm.Table.t list) option Atomic.t;
}

let spec text = { text; lowered = Atomic.make None }

let lower spec ~app =
  match Atomic.get spec.lowered with
  | Some l -> l
  | None ->
      let machines = compile_exn ~app spec.text in
      let l = Some (machines, List.map Fsm.Table.compile machines) in
      ignore (Atomic.compare_and_set spec.lowered None l);
      Option.get (Atomic.get spec.lowered)

let deploy ?engine device app spec ~seed =
  let machines, tables = lower spec ~app in
  let suite = Suite.of_tables ?engine (Device.nvm device) tables in
  let config = { Runtime.default_config with seed } in
  {
    device;
    app;
    suite;
    machines;
    tables;
    config;
    adaptations = [];
    freshness = None;
    backend = Backend.immortal;
  }

(* examples/quickstart.ml, reconstructed fresh on every call. *)
let quickstart =
  let spec = spec "transmit: { maxTries: 3 onFail: skipPath; }" in
  let build ~engine ~seed =
    let capacitor =
      Capacitor.create ~capacity:(Energy.mj 3.2) ~on_threshold:(Energy.mj 3.1)
        ~off_threshold:(Energy.mj 0.2) ()
    in
    let device =
      Device.create ~capacitor
        ~policy:(Charging_policy.Fixed_delay (Time.of_sec 30))
        ()
    in
    let nvm = Device.nvm device in
    let samples =
      Channel.create nvm ~name:"samples" ~bytes_per_item:4 ~capacity:4
    in
    let sample =
      Task.make ~name:"sample" ~duration:(Time.of_ms 100) ~power:(Energy.mw 2.)
        ~body:(fun _ -> Channel.push samples 21.5)
        ()
    in
    let transmit =
      Task.make ~name:"transmit" ~duration:(Time.of_ms 120)
        ~power:(Energy.mw 26.) ()
    in
    let app =
      Task.app ~name:"quickstart"
        [ { Task.index = 1; tasks = [ sample; transmit ] } ]
    in
    deploy ?engine device app spec ~seed
  in
  {
    name = "quickstart";
    description =
      "sample -> doomed transmit, maxTries:3 skipPath, 3.2 mJ capacitor";
    build;
  }

let health =
  let spec = spec Health_app.spec_text in
  let build ~engine ~seed =
    let device = Device.create () in
    let app, _handles = Health_app.make (Device.nvm device) in
    deploy ?engine device app spec ~seed
  in
  {
    name = "health";
    description = "wearable health benchmark (Figures 4-6), full spec";
    build;
  }

(* --- live-adaptation scenarios (PR 4): same devices, plus a mid-run
   property update so the campaign can crash inside the update window --- *)

let with_adaptations base ~name ~description adaptations =
  {
    name;
    description;
    build =
      (fun ~engine ~seed ->
        let b = base.build ~engine ~seed in
        { b with adaptations });
  }

let quickstart_adapt =
  (* Tighten the doomed transmit's retry budget mid-run: replaces the
     deployed maxTries_transmit monitor (same name, compatible layout). *)
  with_adaptations quickstart ~name:"quickstart-adapt"
    ~description:
      "quickstart plus a live update at iteration 3 replacing the maxTries \
       property (maxTries: 3 -> 2)"
    [ (3, Adapt.spec_update ~id:1 "transmit: { maxTries: 2 onFail: skipPath; }") ]

let health_adapt =
  (* Tighten the MITD window (same machine name, persistent [attempts]
     carried over by migration) and retire the maxDuration property in
     one update: exercises replacement, migration and removal on the
     full benchmark suite. *)
  with_adaptations health ~name:"health-adapt"
    ~description:
      "health benchmark plus a live update at iteration 40 tightening the \
       MITD window (5min -> 4min, attempts migrated) and removing \
       maxDuration_send"
    [
      ( 40,
        Adapt.spec_update ~id:1 ~remove:[ "maxDuration_send" ]
          "send: { MITD: 4min dpTask: accel onFail: restartPath maxAttempt: 3 \
           onFail: skipPath Path: 2; }" );
    ]

(* --- consistency & freshness scenarios (PR 7) --- *)

(* Attach an input-freshness tracker to a scenario: the tracker reads
   the device's simulated clock and revert counter and subscribes to the
   Device.record chokepoint, so every task event the run logs feeds it.
   One fresh tracker per build keeps parallel campaigns deterministic. *)
let with_freshness base ~name ~description ~budget ~reads =
  {
    name;
    description;
    build =
      (fun ~engine ~seed ->
        let b = base.build ~engine ~seed in
        let device = b.device in
        let nvm = Device.nvm device in
        let tracker =
          Consistency.Freshness.create
            ~clock:(fun () -> Time.to_us (Device.sim_time device))
            ~in_tx:(fun () -> Nvm.in_tx nvm)
            ~revert_count:(fun () -> Nvm.revert_count nvm)
            ~budget ~reads ()
        in
        Device.set_on_record device
          (Some (Consistency.Freshness.on_event tracker));
        { b with freshness = Some tracker });
  }

let quickstart_fresh =
  (* quickstart under a generous freshness budget: the doomed transmit
     retries across 30 s charging delays, but sample's data never ages
     past 10 minutes, so the oracle stays silent - until a chaos hook
     (skipped stamps, recovery clock skip) re-introduces the bug. *)
  with_freshness quickstart ~name:"quickstart-fresh"
    ~description:
      "quickstart plus an input-freshness budget: transmit must consume \
       sample data younger than 10 minutes"
    ~budget:(Time.of_min 10)
    ~reads:[ ("transmit", [ "sample" ]) ]

(* Deliberately-buggy app #1: a driver-shim task that accumulates into a
   raw Runtime-region FRAM word with a direct write - the classic WAR
   hazard.  The task-atomicity oracle only snapshots the Application
   region (task transactions only protect application state), so no
   dynamic oracle can see the double-apply; only the static WAR pass
   flags it.  That asymmetry is this scenario's reason to exist. *)
let war_buggy =
  let spec = spec "filter: { maxTries: 3 onFail: skipPath; }" in
  let build ~engine ~seed =
    let device = Device.create () in
    let nvm = Device.nvm device in
    let samples =
      Channel.create nvm ~name:"samples" ~bytes_per_item:4 ~capacity:4
    in
    let acc =
      Nvm.cell nvm ~region:Nvm.Runtime ~name:"drv.filter.acc" ~bytes:4 0
    in
    let sense =
      Task.make ~name:"sense" ~duration:(Time.of_ms 100) ~power:(Energy.mw 2.)
        ~body:(fun _ -> Channel.push samples 19.0)
        ()
    in
    let filter =
      Task.make ~name:"filter" ~duration:(Time.of_ms 80) ~power:(Energy.mw 3.)
        ~body:(fun _ ->
          (* BUG (deliberate): read-modify-write of persistent state
             outside the task transaction - re-execution double-counts *)
          Nvm.write acc (Nvm.read acc + 1))
        ()
    in
    let app =
      Task.app ~name:"war-buggy"
        [ { Task.index = 1; tasks = [ sense; filter ] } ]
    in
    deploy ?engine device app spec ~seed
  in
  {
    name = "war-buggy";
    description =
      "deliberately buggy: filter read-modify-writes a Runtime-region cell \
       outside its transaction (WAR hazard for the static pass; invisible \
       to the dynamic oracles)";
    build;
  }

(* Deliberately-buggy app #2: the consumer's freshness budget (10 s) is
   shorter than the charging delay (30 s).  The uninjected baseline runs
   both tasks on one charge and stays green; any injected crash between
   the sense commit and the report commit inserts a 30 s outage, so the
   report consumes stale data and the input-freshness oracle fires.  No
   other oracle is violated: state stays transactional throughout. *)
let stale_read =
  let base =
    let spec = spec "report: { maxTries: 5 onFail: skipPath; }" in
    let build ~engine ~seed =
      let device =
        Device.create ~policy:(Charging_policy.Fixed_delay (Time.of_sec 30)) ()
      in
      let nvm = Device.nvm device in
      let samples =
        Channel.create nvm ~name:"samples" ~bytes_per_item:4 ~capacity:4
      in
      let reported = Nvm.cell nvm ~region:Nvm.Application ~name:"reported" ~bytes:4 0 in
      let sense =
        Task.make ~name:"sense" ~duration:(Time.of_ms 100)
          ~power:(Energy.mw 2.)
          ~body:(fun _ -> Channel.push samples 23.4)
          ()
      in
      let report =
        Task.make ~name:"report" ~duration:(Time.of_ms 120)
          ~power:(Energy.mw 5.)
          ~body:(fun _ ->
            let items = Channel.take_all samples in
            Nvm.tx_write reported (Nvm.read reported + List.length items))
          ()
      in
      let app =
        Task.app ~name:"stale-read"
          [ { Task.index = 1; tasks = [ sense; report ] } ]
      in
      deploy ?engine device app spec ~seed
    in
    { name = "stale-read"; description = ""; build }
  in
  with_freshness base ~name:"stale-read"
    ~description:
      "deliberately buggy: report's 10 s freshness budget is shorter than \
       the 30 s charging delay, so any crash between sense and report \
       commits makes the consumed data stale"
    ~budget:(Time.of_sec 10)
    ~reads:[ ("report", [ "sense" ]) ]

(* Seeded over-budget scenario (PR 9): a micro-capacitor device whose
   deployed property is energy-admissible, plus a scheduled OTA update
   carrying a property whose worst-case monitor-call bound exceeds the
   whole usable charge budget - the energy-admissibility analysis must
   classify it "may livelock" and the adaptation validate step must
   refuse it as energy-inadmissible.  The update is scheduled far past
   the app's lifetime, so normal runs complete cleanly; only the static
   report and the validate path ever see the heavy payload. *)
let livelock_prop =
  (* ~20 FRAM stores per fired body at nvm_write_cycles each: the
     structural bound alone dwarfs the 1.0 uJ usable budget. *)
  let heavy_machine_src =
    let vars =
      String.concat "\n  "
        (List.init 20 (fun i -> Printf.sprintf "var w%d : int = 0;" i))
    in
    let stmts =
      String.concat "\n      "
        (List.init 20 (fun i -> Printf.sprintf "w%d := (w%d + 1);" i i))
    in
    Printf.sprintf
      "machine audit_log {\n\
      \  %s\n\
      \  initial state Idle {\n\
      \    on endTask(ping) {\n\
      \      %s\n\
      \    } -> Idle;\n\
      \  }\n\
       }"
      vars stmts
  in
  let spec = spec "ping: { maxTries: 3 onFail: skipPath; }" in
  let build ~engine ~seed =
    let capacitor =
      Capacitor.create ~capacity:(Energy.uj 1.8) ~on_threshold:(Energy.uj 1.6)
        ~off_threshold:(Energy.uj 0.8) ()
    in
    let device =
      Device.create ~capacitor
        ~policy:(Charging_policy.Fixed_delay (Time.of_sec 1))
        ()
    in
    let ping =
      Task.make ~name:"ping" ~duration:(Time.of_us 200) ~power:(Energy.mw 1.2)
        ()
    in
    let app =
      Task.app ~name:"livelock-prop" [ { Task.index = 1; tasks = [ ping ] } ]
    in
    let b =
      deploy ?engine device app spec ~seed
    in
    {
      b with
      adaptations = [ (1_000_000, Adapt.machine_update ~id:1 heavy_machine_src) ];
    }
  in
  {
    name = "livelock-prop";
    description =
      "seeded over-budget update: 1.0 uJ usable budget, scheduled OTA payload \
       whose 20-store monitor body can never complete a call on one charge \
       (must classify 'may livelock' and be refused as energy-inadmissible)";
    build;
  }

let with_engine engine base =
  { base with build = (fun ~engine:_ ~seed -> base.build ~engine:(Some engine) ~seed) }

(* --- runtime-matrix scenarios (PR 10): same device and monitors, a
   different task commit protocol --- *)

let with_backend backend ~name ~description base =
  {
    name;
    description;
    build =
      (fun ~engine ~seed ->
        let b = base.build ~engine ~seed in
        { b with backend });
  }

let quickstart_alpaca =
  with_backend Alpaca.backend ~name:"quickstart-alpaca"
    ~description:
      "quickstart under the checkpoint-free Alpaca backend (two-phase \
       log-then-swap commit, four protocol injection sites)"
    quickstart

let all =
  [ quickstart; health; quickstart_adapt; health_adapt; quickstart_fresh;
    stale_read; war_buggy; livelock_prop; quickstart_alpaca ]

let find name = List.find_opt (fun s -> s.name = name) all

let lookup name =
  match find name with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown scenario %S (%s)" name
           (String.concat "|" (List.map (fun s -> s.name) all)))
