open Artemis_util
module Nvm = Artemis_nvm.Nvm
module Site = Artemis_nvm.Site
module Device = Artemis_device.Device
module Cost_model = Artemis_device.Cost_model
module Report = Artemis_device.Report
module Capacitor = Artemis_energy.Capacitor
module Event = Artemis_trace.Event
module Log = Artemis_trace.Log
module Stats = Artemis_trace.Stats
module Task = Artemis_task.Task
module Interp = Artemis_fsm.Interp
module Suite = Artemis_monitor.Suite
module Monitor = Artemis_monitor.Monitor
module Immortal = Artemis_immortal.Immortal
module Obs = Artemis_obs.Obs
module Adapt = Artemis_adapt.Adapt
module Energy_analysis = Artemis_energy_analysis.Energy_analysis
module Backend = Artemis_backend.Backend

let m_monitor_calls = Obs.counter "monitor_calls"
let h_task_attempt = Obs.histogram "task_attempt_us"
let h_monitor_call = Obs.histogram "monitor_call_us"

(* Test-only chaos hooks (see test/test_oracle_sensitivity.ml): each
   flag re-introduces a known-bad behaviour a faultsim oracle is meant
   to catch, so the mutation suite can prove the oracles still fire.
   All off by default; production code never sets them. *)
module Chaos = struct
  let reorder_begin_mcall = ref false
  let drop_adapt_journal = ref false
  let double_apply_action = ref false
  let double_adapt_event = ref false
  let leak_on_recovery = ref false

  let reset () =
    reorder_begin_mcall := false;
    drop_adapt_journal := false;
    double_apply_action := false;
    double_adapt_event := false;
    leak_on_recovery := false
end

(* Time a runtime-layer operation as one balanced span on [cat]'s track
   and (optionally) record its simulated duration in a histogram.  The
   wrapped functions can be cut short by power failures or by
   [Nvm.Injected_failure] from a fault-injection probe, so the span is
   closed on the exception path too - a crashed attempt still exports a
   well-formed (short) span rather than a dangling B. *)
let observed obs ~cat ?args ?hist name f =
  if not (Obs.metrics_enabled obs || Obs.tracing_enabled obs) then f ()
  else begin
    let t0 = Obs.now_us obs in
    let finish () =
      let t1 = Obs.now_us obs in
      (match hist with Some h -> Obs.observe_us obs h (t1 - t0) | None -> ());
      if Obs.tracing_enabled obs then
        Obs.span obs ~cat ?args ~begin_us:t0 ~end_us:t1 name
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Re-export of the canonical definition in {!Energy_analysis}: the
   static admissibility pass and the simulator must price deployments
   from the same type and the same cost functions. *)
type monitor_deployment = Energy_analysis.deployment =
  | Separate_module
  | Inlined
  | External_wireless of { radio_power : Energy.power; round_trip : Time.t }

let default_external_wireless =
  External_wireless { radio_power = Energy.mw 30.; round_trip = Time.of_ms 8 }

type config = {
  cost_model : Cost_model.t;
  max_loop_iterations : int;
  seed : int;
  deployment : monitor_deployment;
  rounds : int;
}

let default_config =
  {
    cost_model = Cost_model.default;
    max_loop_iterations = Report.max_loop_iterations;
    seed = 42;
    deployment = Separate_module;
    rounds = 1;
  }

(* The runtime's whole scheduling position fits in one persistent cell so
   that updating it is a single (atomic) FRAM write: a power failure can
   never observe a half-advanced scheduler. *)
type cursor = {
  path : int;  (** 1-based path index; > path count means app done *)
  index : int;  (** position within the path *)
  finished : bool;  (** TASK_FINISHED: end event pending *)
  attempt : int;  (** start attempts of the current task instance *)
  end_ts : Time.t;  (** completion timestamp, fixed inside the task tx *)
}

type journal_entry =
  | Stepped of Interp.event
  | Reinited of string list
  | Adapted of { id : int; generation : int }

(* The monitor-call flag and (under instrumentation) the journal of
   committed monitor calls share one cell: flipping [active] off and
   recording "this event's call completed" is a single atomic FRAM
   write, so a crash can never observe a completed call that is missing
   from the journal or vice versa. *)
type mcall = {
  active : bool;
  journal : journal_entry list;  (** newest first; [] when not instrumented *)
}

(* One generation of the monitor deployment.  Live adaptation swaps the
   whole record at once: the suite, the deployment-ordered monitor array
   and the callMonitor thread always belong to the same generation. *)
type exec = {
  gen : int;
  suite : Suite.t;
  monitors : Monitor.t array;  (** deployment order; step [i] of the
                                   callMonitor thread runs monitor [i] *)
  thread : Immortal.t;
}

(* --- live adaptation bookkeeping (PR 4) --- *)

type adaptation_outcome =
  | Update_applied of { generation : int; migrations : Adapt.migration list }
  | Update_rejected of string
  | Update_unfinished  (** the run ended before delivery completed *)

type adaptation_record = {
  update_id : int;
  scheduled_iteration : int;
  wire_bytes : int;
  outcome : adaptation_outcome;
  first_attempt_at : Time.t;
  completed_at : Time.t;
  radio_time : Time.t;  (** modeled transfer time of the successful delivery *)
  radio_energy : Energy.energy;
}

(* Host-side delivery state: mutable heap fields survive simulated power
   failures (only Ram cells and the open transaction reset), which is how
   an interrupted delivery is retried — the durable exactly-once guarantee
   lives in the Adapt control cell, not here. *)
type delivery = {
  d_update : Adapt.update;
  d_iteration : int;
  mutable d_delivered : bool;  (** staged durably; do not re-deliver *)
  mutable d_first_attempt : Time.t option;
  mutable d_radio_time : Time.t;
  mutable d_radio_energy : Energy.energy;
  mutable d_record : adaptation_record option;
}

type state = {
  device : Device.t;
  nvm : Nvm.t;  (** the device's store, where every injection site fires *)
  app : Task.app;
  paths : Task.t array array;
  binst : Backend.instance;
      (** the task execute/commit protocol (PR 10): which intermittent-
          system family makes task effects durable, and at what cost *)
  mutable exec : exec;  (** the active generation's deployment *)
  adapt : Adapt.t;
  deliveries : delivery list;
  config : config;
  cursor : cursor Nvm.cell;
  event : Interp.event Nvm.cell;
  mcall : mcall Nvm.cell;
  mcall_failures : Interp.failure list Nvm.cell;
  suspended : bool Nvm.cell;  (** completePath: monitoring suspended *)
  round : int Nvm.cell;  (** reactive execution: current pass, 1-based *)
  prng : Prng.t;
  journaling : bool;  (** record the committed event prefix in [mcall] *)
  mutable max_mcall_energy : Energy.energy;
      (** worst observed Monitor_work energy of a single
          [resume_monitor_call] attempt (the energy-admissibility
          bound-domination witness) *)
}

type mcall_result = Pending | Verdict of Interp.failure list

let dummy_event =
  {
    Interp.kind = Interp.Start;
    task = "";
    timestamp = Time.zero;
    path = 0;
    dep_data = [];
    energy_mj = 0.;
  }

let action_name a = Artemis_fsm.Ast.action_to_string a

(* Build one generation's executable deployment.  The callMonitor thread
   gets a per-generation name so each generation's persistent program
   counter is its own cell. *)
let make_exec nvm ~gen suite event mcall_failures =
  let monitors = Array.of_list (Suite.monitors suite) in
  let steps =
    Array.map
      (fun monitor () ->
        let ev = Nvm.read event in
        match Monitor.step monitor ev with
        | [] -> ()
        | failures ->
            (* joins the immortal step's transaction: the failure list,
               the monitor's own writes and the pc advance commit
               together *)
            Nvm.write_join mcall_failures (Nvm.read mcall_failures @ failures))
      monitors
  in
  let steps = if Array.length steps = 0 then [| (fun () -> ()) |] else steps in
  let name =
    if gen = 0 then "callMonitor" else Printf.sprintf "callMonitor.g%d" gen
  in
  let thread = Immortal.create nvm ~region:Monitor ~name ~steps in
  { gen; suite; monitors; thread }

let make_state ?(journaling = false) ?(adaptations = [])
    ?(backend = Backend.immortal) ~config device app suite =
  (match Task.validate app with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runtime.run: invalid application: " ^ msg));
  if config.rounds < 1 then invalid_arg "Runtime.run: rounds must be positive";
  let nvm = Device.nvm device in
  let paths =
    Array.of_list (List.map (fun p -> Array.of_list p.Task.tasks) app.Task.paths)
  in
  let cursor =
    Nvm.cell nvm ~region:Runtime ~name:"rt.cursor" ~bytes:12
      { path = 1; index = 0; finished = false; attempt = 0; end_ts = Time.zero }
  in
  let event = Nvm.cell nvm ~region:Runtime ~name:"rt.event" ~bytes:24 dummy_event in
  let mcall =
    Nvm.cell nvm ~region:Runtime ~name:"rt.mcallActive" ~bytes:1
      { active = false; journal = [] }
  in
  let mcall_failures =
    Nvm.cell nvm ~region:Monitor ~name:"rt.mcallFailures" ~bytes:16 []
  in
  let suspended =
    Nvm.cell nvm ~region:Runtime ~name:"rt.suspended" ~bytes:1 false
  in
  let round = Nvm.cell nvm ~region:Runtime ~name:"rt.round" ~bytes:2 1 in
  (* volatile scratch (loop counters etc.): the 2 bytes of RAM Table 2
     reports for the runtime *)
  ignore (Nvm.cell nvm ~region:Runtime ~kind:Artemis_nvm.Nvm.Ram ~name:"rt.scratch" ~bytes:2 0);
  let exec0 = make_exec nvm ~gen:0 suite event mcall_failures in
  (* Replacement monitors built by future updates match the deployed
     engine (differential tests run fully-interpreted deployments). *)
  let engine =
    match Suite.monitors suite with
    | m :: _ -> Monitor.engine m
    | [] -> Monitor.Table
  in
  (* Energy admission for OTA updates (PR 9): a validated update whose
     properties could never complete a monitor call on one capacitor
     charge is refused as energy-inadmissible before it can be staged
     into the suite.  The budget is read per call so a policy swapped
     mid-run is honoured. *)
  let admission tables =
    Energy_analysis.admit ~deployment:config.deployment
      ~model:config.cost_model
      ~budget:(Energy_analysis.budget_of_device device)
      tables
  in
  let adapt = Adapt.create ~engine ~admission nvm ~app suite in
  let deliveries =
    List.map
      (fun (at, update) ->
        {
          d_update = update;
          d_iteration = at;
          d_delivered = false;
          d_first_attempt = None;
          d_radio_time = Time.zero;
          d_radio_energy = Energy.zero;
          d_record = None;
        })
      adaptations
  in
  (* Backend cells are allocated last, after the shared runtime's and the
     adaptation manager's, so every backend sees the same cell prefix and
     the footprint fingerprints stay deterministic per backend. *)
  let binst =
    backend.Backend.setup ~model:config.cost_model device app
  in
  {
    device;
    nvm;
    app;
    paths;
    binst;
    exec = exec0;
    adapt;
    deliveries;
    config;
    cursor;
    event;
    mcall;
    mcall_failures;
    suspended;
    round;
    prng = Prng.create ~seed:config.seed;
    journaling;
    max_mcall_energy = Energy.zero;
  }

let path_count st = Array.length st.paths
let current_task st (c : cursor) = st.paths.(c.path - 1).(c.index)

let consume_monitor st ~power ~duration =
  Device.consume st.device Device.Monitor_work ~power ~duration ()

(* Per-deployment monitor costs (Section 7 "Implementation Alternatives"):
   (dispatch cost, per-property cost).  Inlined monitoring halves the
   per-check cycles and has no dispatch; external monitoring pays a radio
   round-trip per event and evaluates off-device.  Delegated to
   {!Energy_analysis} so the static bound prices exactly what the
   simulator charges. *)
let monitor_dispatch_cost st =
  Energy_analysis.dispatch_cost st.config.cost_model st.config.deployment

let monitor_step_cost st =
  Energy_analysis.step_cost st.config.cost_model st.config.deployment

let capacitor_mj st = Energy.to_mj (Capacitor.level (Device.capacitor st.device))

(* Run (or resume) the callMonitor thread, paying the cost model per step.
   A power failure leaves the thread mid-way; the next loop iteration
   resumes it - that is monitorFinalize (Figure 8, line 16).

   Every monitor is stepped, as in the paper's callMonitor, but only a
   monitor whose machine watches the event's task is charged for its
   step: any other can only take the implicit self-transition, which
   costs nothing beyond the per-call dispatch cost.  Monitor overhead
   therefore scales with the monitors an event can fire, not with the
   deployed property count. *)
let resume_monitor_call_inner st =
  observed (Device.obs st.device) ~cat:"monitor" ~hist:h_monitor_call
    "monitor_call"
  @@ fun () ->
  let step_power, step_duration = monitor_step_cost st in
  let step_watches_event st =
    let i = Immortal.pc st.exec.thread in
    i < Array.length st.exec.monitors
    && Monitor.watches_event st.exec.monitors.(i) (Nvm.read st.event)
  in
  let run_one_step () =
    Nvm.fire st.nvm Site.rt_monitor_step_before;
    (match Immortal.run_step st.exec.thread with
    | Immortal.Ran _ | Immortal.Done -> ());
    Nvm.fire st.nvm Site.rt_monitor_step_after
  in
  let rec steps () =
    if Immortal.completed st.exec.thread then begin
      (* Single-write commit point of the whole call: the active flag
         drops and (under instrumentation) the event joins the committed
         journal atomically.  The thread is re-armed by the next
         [begin_monitor_call], so a crash on either side of this write
         leaves a consistent state: still-active resumes into this same
         branch, inactive means the call (and its journal entry) are
         durable. *)
      let failures = Nvm.read st.mcall_failures in
      let m = Nvm.read st.mcall in
      let journal =
        if st.journaling then Stepped (Nvm.read st.event) :: m.journal
        else m.journal
      in
      Nvm.write st.mcall { active = false; journal };
      Verdict failures
    end
    else if not (step_watches_event st) then begin
      run_one_step ();
      steps ()
    end
    else
      match consume_monitor st ~power:step_power ~duration:step_duration with
      | Device.Completed ->
          run_one_step ();
          steps ()
      | Device.Interrupted | Device.Starved -> Pending
  in
  if Immortal.fresh st.exec.thread then begin
    let dispatch_power, dispatch_duration = monitor_dispatch_cost st in
    match consume_monitor st ~power:dispatch_power ~duration:dispatch_duration with
    | Device.Completed -> steps ()
    | Device.Interrupted | Device.Starved -> Pending
  end
  else steps ()

(* One call attempt is the admissibility analysis's atomic unit: each
   [resume_monitor_call] invocation runs within a single power cycle
   (interruption returns [Pending]), so its Monitor_work delta must stay
   under the static per-call bound.  Record the worst attempt, on the
   exception path too - an injected crash mid-call still spent energy. *)
let resume_monitor_call st =
  let before = Device.energy_in st.device Device.Monitor_work in
  let note () =
    let spent =
      Energy.sub_exact (Device.energy_in st.device Device.Monitor_work) before
    in
    if Energy.(st.max_mcall_energy < spent) then st.max_mcall_energy <- spent
  in
  match resume_monitor_call_inner st with
  | r ->
      note ();
      r
  | exception e ->
      note ();
      raise e

let begin_monitor_call st =
  (* Crash-consistency ordering: re-arm the thread and clear the failure
     accumulator BEFORE raising the active flag.  The reverse order has a
     window where active is set while the pc still reads "completed" from
     the previous call, and a reboot inside it would deliver a stale
     empty verdict without stepping any monitor. *)
  Obs.incr (Device.obs st.device) m_monitor_calls;
  if !Chaos.reorder_begin_mcall then begin
    (* the pre-PR2 ordering bug, kept re-introducible for the mutation
       suite: active goes up while the thread still reads "completed" *)
    Nvm.write st.mcall { (Nvm.read st.mcall) with active = true };
    Immortal.reset st.exec.thread;
    Nvm.write st.mcall_failures []
  end
  else begin
    Immortal.reset st.exec.thread;
    Nvm.write st.mcall_failures [];
    Nvm.write st.mcall { (Nvm.read st.mcall) with active = true }
  end

(* --- cursor movements; each is one atomic cell write --- *)

let path_start p =
  { path = p; index = 0; finished = false; attempt = 0; end_ts = Time.zero }

let advance st =
  let c = Nvm.read st.cursor in
  if c.index + 1 < Array.length st.paths.(c.path - 1) then
    Nvm.write st.cursor
      { c with index = c.index + 1; finished = false; attempt = 0 }
  else begin
    Device.record st.device (Event.Path_completed { path = c.path });
    Nvm.write st.suspended false;
    Nvm.write st.cursor (path_start (c.path + 1))
  end

let restart_path st ~target ~reason =
  observed (Device.obs st.device) ~cat:"runtime" "restart_path" @@ fun () ->
  let c = Nvm.read st.cursor in
  let p = Option.value target ~default:c.path in
  Device.record st.device (Event.Path_restarted { path = p; reason });
  let tasks =
    Array.to_list st.paths.(p - 1) |> List.map (fun t -> t.Task.name)
  in
  (* The restart spans many cells (suspension flag, every watching
     monitor's state and variables, the cursor), so it runs as one NVM
     transaction: a power failure mid-restart rolls the whole action back
     and the retried verdict re-issues it, instead of leaving
     half-reinitialized monitors behind. *)
  let nvm = Device.nvm st.device in
  Nvm.begin_tx nvm;
  Nvm.write_join st.suspended false;
  Suite.reinit_for_tasks st.exec.suite ~tasks;
  if st.journaling then begin
    let m = Nvm.read st.mcall in
    Nvm.write_join st.mcall { m with journal = Reinited tasks :: m.journal }
  end;
  Nvm.write_join st.cursor (path_start p);
  Nvm.commit_tx nvm

let skip_path st ~target ~reason =
  let c = Nvm.read st.cursor in
  let p = Option.value target ~default:c.path in
  Device.record st.device (Event.Path_skipped { path = p; reason });
  Nvm.write st.suspended false;
  Nvm.write st.cursor (path_start (p + 1))

(* --- task execution (the Proceed case of checkTask) --- *)

let execute_task st =
  let c = Nvm.read st.cursor in
  let task = current_task st c in
  observed (Device.obs st.device) ~cat:"app"
    ~args:[ ("attempt", Obs.I c.attempt) ]
    ~hist:h_task_attempt task.Task.name
  @@ fun () ->
  (* The commit protocol is the backend's, every one of them a
     [Backend.attempt]: the task body inside one NVM transaction whose
     commit also flips the cursor (Alpaca logs-then-swaps instead), and
     the completion record after it.  [commit] is the runtime's cursor
     write, made durable atomically with the task's own effects. *)
  let commit () =
    Nvm.tx_write st.cursor
      { c with finished = true; end_ts = Device.now st.device }
  in
  ignore (st.binst.Backend.execute ~task ~prng:st.prng ~commit)

(* The Proceed case of checkTask: a start event runs the task, an end
   event moves the cursor past it. *)
let proceed st = function
  | Interp.Start -> execute_task st
  | Interp.End -> advance st

(* --- verdict application --- *)

let apply_verdict_body st failures =
  let ev = Nvm.read st.event in
  List.iter
    (fun (f : Interp.failure) ->
      Device.record st.device
        (Event.Monitor_verdict
           { monitor = f.failed_machine; task = ev.Interp.task;
             action = action_name f.action }))
    failures;
  match Suite.arbitrate failures with
  | None -> proceed st ev.Interp.kind
  | Some f -> (
      Device.record st.device
        (Event.Runtime_action
           { action = action_name f.action; task = ev.Interp.task });
      if !Chaos.double_apply_action then
        Device.record st.device
          (Event.Runtime_action
             { action = action_name f.action; task = ev.Interp.task });
      let reason = f.failed_machine in
      match f.action with
      | Artemis_fsm.Ast.Restart_task -> (
          match ev.Interp.kind with
          | Interp.Start -> ()  (* stay on the task; next iteration retries *)
          | Interp.End ->
              let c = Nvm.read st.cursor in
              Nvm.write st.cursor { c with finished = false; attempt = 0 })
      | Artemis_fsm.Ast.Skip_task -> advance st
      | Artemis_fsm.Ast.Restart_path ->
          restart_path st ~target:f.target_path ~reason
      | Artemis_fsm.Ast.Skip_path -> skip_path st ~target:f.target_path ~reason
      | Artemis_fsm.Ast.Complete_path ->
          let c = Nvm.read st.cursor in
          Device.record st.device (Event.Monitoring_suspended { path = c.path });
          Nvm.write st.suspended true;
          proceed st ev.Interp.kind)

let apply_verdict st failures =
  Nvm.fire st.nvm Site.rt_verdict_before;
  apply_verdict_body st failures;
  Nvm.fire st.nvm Site.rt_verdict_after

(* Run the armed monitor call as far as this power cycle allows.  An
   interrupted call stays active, and the next loop iteration resumes it
   here (monitorFinalize); a finished call's verdict is applied. *)
let monitor_call st =
  match resume_monitor_call st with
  | Pending -> ()
  | Verdict failures -> apply_verdict st failures

(* --- the live-adaptation update window (PR 4) ---

   Runs between monitor calls: never while a callMonitor thread is
   mid-flight, so a generation swap cannot strand a half-delivered
   event.  The durable protocol lives in [Adapt]; this layer adds radio
   delivery costing, trace/journal bookkeeping and the host-side exec
   swap. *)

let chunk_bytes = 64

(* Delivery is always costed through the External_wireless radio model:
   on-device deployments still receive updates over the same BLE-class
   link the external-monitor variant uses for events. *)
let rec link_cost deployment ~bytes =
  match deployment with
  | External_wireless { radio_power; round_trip } ->
      let chunks = max 1 ((bytes + chunk_bytes - 1) / chunk_bytes) in
      (radio_power, Time.scale round_trip chunks)
  | Separate_module | Inlined -> link_cost default_external_wireless ~bytes

(* Swap in the committed generation's deployment.  The durable generation
   only moves forward and [st.exec] survives power failures, so each
   generation's thread, and its persistent pc cell, is built exactly once:
   at the first window after its flip commits. *)
let sync_exec st =
  let gen = Adapt.generation st.adapt in
  if gen <> st.exec.gen then
    st.exec <-
      make_exec (Device.nvm st.device) ~gen (Adapt.active st.adapt) st.event
        st.mcall_failures

let find_delivery st id =
  List.find_opt (fun d -> d.d_update.Adapt.id = id) st.deliveries

let delivery_record st (d : delivery) outcome =
  {
    update_id = d.d_update.Adapt.id;
    scheduled_iteration = d.d_iteration;
    wire_bytes = Adapt.wire_bytes d.d_update;
    outcome;
    first_attempt_at = Option.value d.d_first_attempt ~default:Time.zero;
    completed_at = Device.now st.device;
    radio_time = d.d_radio_time;
    radio_energy = d.d_radio_energy;
  }

let finish_delivery st (d : delivery) outcome =
  d.d_delivered <- true;
  if d.d_record = None then d.d_record <- Some (delivery_record st d outcome)

let apply_staged st =
  match
    Adapt.apply
      ~commit_extra:(fun (a : Adapt.applied) ->
        (* joins the flip transaction: the generation change and its
           journal entry commit atomically (the golden oracle replays the
           update at exactly this point) *)
        if st.journaling && not !Chaos.drop_adapt_journal then
          let m = Nvm.read st.mcall in
          Nvm.tx_write st.mcall
            {
              m with
              journal =
                Adapted { id = a.Adapt.id; generation = a.Adapt.generation }
                :: m.journal;
            })
      st.adapt
  with
  | Adapt.Idle -> ()
  | Adapt.Applied a ->
      Device.record st.device
        (Event.Adaptation_applied { id = a.Adapt.id; generation = a.Adapt.generation });
      if !Chaos.double_adapt_event then
        Device.record st.device
          (Event.Adaptation_applied
             { id = a.Adapt.id; generation = a.Adapt.generation });
      (match find_delivery st a.Adapt.id with
      | Some d ->
          finish_delivery st d
            (Update_applied
               { generation = a.Adapt.generation; migrations = a.Adapt.migrations })
      | None -> ());
      sync_exec st
  | Adapt.Rejected { id; reason } -> (
      Device.record st.device (Event.Adaptation_rejected { id; reason });
      match find_delivery st id with
      | Some d -> finish_delivery st d (Update_rejected reason)
      | None -> ())

let deliver st (d : delivery) =
  if d.d_first_attempt = None then d.d_first_attempt <- Some (Device.now st.device);
  let radio_power, duration =
    link_cost st.config.deployment ~bytes:(Adapt.wire_bytes d.d_update)
  in
  match
    Device.consume st.device Device.Runtime_work ~during:"adapt.deliver"
      ~power:radio_power ~duration ()
  with
  | Device.Interrupted | Device.Starved ->
      ()  (* retransmitted at the next update window *)
  | Device.Completed ->
      d.d_radio_time <- Time.add d.d_radio_time duration;
      d.d_radio_energy <-
        Energy.add d.d_radio_energy (Energy.consumed radio_power duration);
      let staged = Adapt.stage st.adapt d.d_update in
      d.d_delivered <- true;
      Device.record st.device
        (Event.Adaptation_staged { id = d.d_update.Adapt.id; bytes = staged });
      apply_staged st

let update_window st ~iteration =
  (* cheap when idle: one cell read and an int compare *)
  sync_exec st;
  if
    st.deliveries <> [] || Adapt.pending_id st.adapt <> None
  then begin
    observed (Device.obs st.device) ~cat:"runtime" "update_window" @@ fun () ->
    (* Recovery first: an update staged before a crash must finish its
       apply before any new delivery restages over it. *)
    if Adapt.pending_id st.adapt <> None then apply_staged st;
    List.iter
      (fun d ->
        if d.d_record = None && Adapt.already_applied st.adapt d.d_update.Adapt.id
        then begin
          (* the durable applied list is the source of truth: a crash
             after the committed flip lost the host-side bookkeeping,
             and when an earlier crash came between staging and
             [d_delivered], recovery applied the update without
             [deliver] ever closing it; either way, record the event
             and close the delivery *)
          let generation = Adapt.generation st.adapt in
          Device.record st.device
            (Event.Adaptation_applied { id = d.d_update.Adapt.id; generation });
          finish_delivery st d (Update_applied { generation; migrations = [] })
        end
        else if (not d.d_delivered) && iteration >= d.d_iteration then
          deliver st d)
      st.deliveries
  end

(* --- event phases --- *)

let make_event st kind (c : cursor) =
  let task = current_task st c in
  let dep_data =
    match kind with
    | Interp.Start -> []
    | Interp.End ->
        List.map (fun (name, get) -> (name, get ())) task.Task.monitored
  in
  {
    Interp.kind;
    task = task.Task.name;
    timestamp =
      (match kind with Interp.Start -> Device.now st.device | Interp.End -> c.end_ts);
    path = c.path;
    dep_data;
    energy_mj = capacitor_mj st;
  }

(* One event of the current task: its start event until the body has
   committed, its end event after.  A start counts a new attempt (and
   opens the path on its first).  The event goes to the persistent
   MonitorEvent cell, then to the monitors, or straight to [proceed]
   while monitoring is suspended (completePath). *)
let event_phase st =
  let c = Nvm.read st.cursor in
  let kind, c =
    if c.finished then (Interp.End, c)
    else begin
      if c.index = 0 && c.attempt = 0 then
        Device.record st.device (Event.Path_started { path = c.path });
      let c = { c with attempt = c.attempt + 1 } in
      Nvm.write st.cursor c;
      let task = current_task st c in
      Device.record st.device
        (Event.Task_started { task = task.Task.name; attempt = c.attempt });
      (Interp.Start, c)
    end
  in
  Nvm.fire st.nvm Site.rt_event_update_before;
  Nvm.write st.event (make_event st kind c);
  Nvm.fire st.nvm Site.rt_event_update_after;
  match
    Cost_model.consume st.config.cost_model st.device
      st.config.cost_model.Cost_model.artemis_runtime_cycles_per_event
  with
  | Device.Interrupted | Device.Starved -> ()
  | Device.Completed ->
      if Nvm.read st.suspended then proceed st kind
      else begin
        begin_monitor_call st;
        monitor_call st
      end

(* --- the scheduler loop's step --- *)

(* An injected fault behaves exactly like a capacitor brown-out at the
   probed instruction: the device aborts volatile/transactional state,
   recharges and reboots, and the next iteration resumes from persistent
   state. *)
let injected_failure st site =
  if !Chaos.leak_on_recovery then
    (* mutation-suite variant: the recovery path allocates a fresh
       uniquely-named cell, violating the stable-footprint contract *)
    ignore
      (Nvm.cell (Device.nvm st.device) ~region:Runtime
         ~name:(Printf.sprintf "rt.leak%d" (Device.power_failures st.device))
         ~bytes:4 0);
  match Device.force_power_failure st.device ~during:("fault:" ^ site) () with
  | Device.Starved ->
      Device.record st.device
        (Event.Horizon_reached { reason = "harvester starved" });
      Some (Stats.Did_not_finish "harvester starved")
  | Device.Completed | Device.Interrupted -> None

let step st iteration =
  try
    (* Reboot-time repair first: a backend whose commit was interrupted
       mid-protocol (e.g. an Alpaca swap with a sealed log) finishes it
       before the scheduler reads the cursor - the redo may be exactly
       what advances it.  One cell read when there is nothing to
       repair. *)
    st.binst.Backend.recover ();
    let c = Nvm.read st.cursor in
    if c.path > path_count st then begin
      let completed_round = Nvm.read st.round in
      if completed_round < st.config.rounds then begin
        (* reactive execution: start the next pass; monitor state
           persists across rounds (periodicity spans them) *)
        Device.record st.device
          (Event.Round_completed { round = completed_round });
        Nvm.write st.round (completed_round + 1);
        Nvm.write st.cursor (path_start 1);
        None
      end
      else Some Stats.Completed
    end
    else begin
      if (Nvm.read st.mcall).active then
        (* monitorFinalize: progress the interrupted monitor call *)
        monitor_call st
      else begin
        (* Between monitor calls: finish or stage live property updates
           (no-op without scheduled adaptations or a staged update). *)
        update_window st ~iteration;
        event_phase st
      end;
      None
    end
  with Nvm.Injected_failure site -> injected_failure st site

let run_internal ?on_site ?journaling ?adaptations ?backend ~config device app
    suite =
  let st =
    make_state ?journaling ?adaptations ?backend ~config device app suite
  in
  (* initial hard reset: resetMonitor (Figure 8, line 14).  Every
     injection site fires on the store, so the one hook installed next
     sees them all; the reset is never probed. *)
  Suite.hard_reset st.exec.suite;
  Nvm.set_probe st.nvm on_site;
  let stats =
    Fun.protect
      ~finally:(fun () -> Nvm.set_probe st.nvm None)
      (fun () ->
        Report.run ~limit:config.max_loop_iterations device (step st))
  in
  (st, stats)

let run ?(config = default_config) ?adaptations ?backend device app suite =
  snd (run_internal ?adaptations ?backend ~config device app suite)

type instrumented = {
  stats : Stats.t;
  journal : journal_entry list;  (** oldest first *)
  partial : (Interp.event * int) option;
      (** monitor call in flight at end of run: (event, immortal pc) *)
  final_suite : Suite.t;
  final_generation : int;
  adaptations : adaptation_record list;
  max_call_energy : Energy.energy;
      (** worst single monitor-call attempt observed (Monitor_work) *)
}

let run_instrumented ?(config = default_config) ?adaptations ?backend ?on_site
    ?probe device app suite =
  let on_site =
    match (on_site, probe) with
    | Some _, Some _ ->
        invalid_arg "Runtime.run_instrumented: both ~on_site and ~probe given"
    | None, Some p -> Some (fun s -> p (Site.label s))
    | on_site, None -> on_site
  in
  let st, stats =
    run_internal ?on_site ~journaling:true ?adaptations ?backend ~config
      device app suite
  in
  (* the run may end between a committed flip and the next update window *)
  sync_exec st;
  let m = Nvm.read st.mcall in
  let partial =
    if m.active && Immortal.pc st.exec.thread > 0 then
      Some (Nvm.read st.event, Immortal.pc st.exec.thread)
    else None
  in
  {
    stats;
    journal = List.rev m.journal;
    partial;
    final_suite = st.exec.suite;
    final_generation = st.exec.gen;
    adaptations =
      List.map
        (fun d ->
          match d.d_record with
          | Some r -> r
          | None -> delivery_record st d Update_unfinished)
        st.deliveries;
    max_call_energy = st.max_mcall_energy;
  }

let runtime_fram_bytes device =
  Nvm.footprint (Device.nvm device) ~kind:Artemis_nvm.Nvm.Fram
    ~region:Artemis_nvm.Nvm.Runtime
