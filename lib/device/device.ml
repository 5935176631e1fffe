open Artemis_util
module Nvm = Artemis_nvm.Nvm
module Capacitor = Artemis_energy.Capacitor
module Charging_policy = Artemis_energy.Charging_policy
module Clock = Artemis_clock.Persistent_clock
module Log = Artemis_trace.Log
module Event = Artemis_trace.Event
module Obs = Artemis_obs.Obs

type category = App | Runtime_work | Monitor_work

(* Observability: the counters mirror the log (they are bumped at the
   single [record] chokepoint), so an enabled-for-the-whole-run registry
   reconciles exactly with the [Stats] derived from the same log. *)
let m_task_executions = Obs.counter "task_executions"
let m_task_completions = Obs.counter "task_completions"
let m_power_failures = Obs.counter "power_failures"
let m_reboots = Obs.counter "reboots"
let m_path_restarts = Obs.counter "path_restarts"
let m_path_skips = Obs.counter "path_skips"
let m_monitor_verdicts = Obs.counter "monitor_verdicts"
let m_runtime_actions = Obs.counter "runtime_actions"
let g_energy_app = Obs.gauge "energy_app_uj"
let g_energy_runtime = Obs.gauge "energy_runtime_uj"
let g_energy_monitor = Obs.gauge "energy_monitor_uj"
let g_capacitor = Obs.gauge "capacitor_uj"
let h_consume = Obs.histogram "consume_us"
let h_charging = Obs.histogram "charging_delay_us"

let observe_event obs event =
  (match event with
  | Event.Task_started _ -> Obs.incr obs m_task_executions
  | Event.Task_completed _ -> Obs.incr obs m_task_completions
  | Event.Power_failure _ -> Obs.incr obs m_power_failures
  | Event.Reboot _ -> Obs.incr obs m_reboots
  | Event.Path_restarted _ -> Obs.incr obs m_path_restarts
  | Event.Path_skipped _ -> Obs.incr obs m_path_skips
  | Event.Monitor_verdict _ -> Obs.incr obs m_monitor_verdicts
  | Event.Runtime_action _ -> Obs.incr obs m_runtime_actions
  | _ -> ());
  if Obs.tracing_enabled obs then
    match event with
    | Event.Boot -> Obs.instant obs ~cat:"power" "boot"
    | Event.Power_failure { during_task } ->
        let args =
          match during_task with
          | Some task -> [ ("task", Obs.S task) ]
          | None -> []
        in
        Obs.instant obs ~cat:"power" ~args "power_failure"
    | Event.Monitor_verdict { monitor; task; action } ->
        Obs.instant obs ~cat:"monitor"
          ~args:
            [ ("monitor", Obs.S monitor); ("task", Obs.S task);
              ("action", Obs.S action) ]
          "verdict"
    | Event.Runtime_action { action; task } ->
        Obs.instant obs ~cat:"runtime"
          ~args:[ ("action", Obs.S action); ("task", Obs.S task) ]
          "corrective_action"
    | Event.Path_restarted { path; reason } ->
        Obs.instant obs ~cat:"runtime"
          ~args:[ ("path", Obs.I path); ("reason", Obs.S reason) ]
          "path_restarted"
    | Event.Path_skipped { path; reason } ->
        Obs.instant obs ~cat:"runtime"
          ~args:[ ("path", Obs.I path); ("reason", Obs.S reason) ]
          "path_skipped"
    | Event.App_completed -> Obs.instant obs ~cat:"runtime" "app_completed"
    | Event.Horizon_reached { reason } ->
        Obs.instant obs ~cat:"runtime"
          ~args:[ ("reason", Obs.S reason) ]
          "horizon_reached"
    | _ -> ()
type consume_result = Completed | Interrupted | Starved

type t = {
  nvm : Nvm.t;
  obs : Obs.t;
  clock : Clock.t;
  capacitor : Capacitor.t;
  mutable policy : Charging_policy.t;
  log : Log.t;
  horizon : Time.t;
  mutable scheduled_failures : Time.t list;  (* sorted ascending *)
  mutable off : Time.t;
  mutable time_app : Time.t;
  mutable time_runtime : Time.t;
  mutable time_monitor : Time.t;
  mutable energy_app : Energy.energy;
  mutable energy_runtime : Energy.energy;
  mutable energy_monitor : Energy.energy;
  mutable failures : int;
  mutable starved : bool;
  mutable on_record : (Event.t -> unit) option;
      (* event-tap at the [record] chokepoint: the freshness tracker
         (PR 7) subscribes here, so every runtime backend that logs
         through this device feeds it without depending on it *)
}

let default_capacitor () =
  Capacitor.create
    ~capacity:(Energy.mj 100.)
    ~on_threshold:(Energy.mj 95.)
    ~off_threshold:(Energy.mj 10.)
    ()

let create ?capacitor ?policy ?clock ?horizon () =
  let capacitor =
    match capacitor with Some c -> c | None -> default_capacitor ()
  in
  let policy =
    match policy with
    | Some p -> p
    | None -> Charging_policy.Fixed_delay (Time.of_min 1)
  in
  let clock = match clock with Some c -> c | None -> Clock.create () in
  let horizon = match horizon with Some h -> h | None -> Time.of_min 360 in
  let obs = Obs.current () in
  (* Hand the observability layer this device's simulated clock so spans
     and instants are stamped in simulated microseconds.  The last
     created device on a context wins; each context's devices run
     sequentially. *)
  Obs.set_clock obs (fun () -> Time.to_us (Clock.elapsed_ground_truth clock));
  {
    nvm = Nvm.create ();
    obs;
    clock;
    capacitor;
    policy;
    log = Log.create ();
    horizon;
    scheduled_failures = [];
    off = Time.zero;
    time_app = Time.zero;
    time_runtime = Time.zero;
    time_monitor = Time.zero;
    energy_app = Energy.zero;
    energy_runtime = Energy.zero;
    energy_monitor = Energy.zero;
    failures = 0;
    starved = false;
    on_record = None;
  }

let nvm t = t.nvm
let obs t = t.obs
let log t = t.log
let capacitor t = t.capacitor
let set_policy t policy = t.policy <- policy
let policy t = t.policy
let now t = Clock.now t.clock
let sim_time t = Clock.elapsed_ground_truth t.clock
let set_on_record t hook = t.on_record <- hook
let record t event =
  Log.record t.log ~at:(now t) event;
  observe_event t.obs event;
  match t.on_record with None -> () | Some f -> f event

let account t category dt energy =
  (match category with
  | App ->
      t.time_app <- Time.add t.time_app dt;
      t.energy_app <- Energy.add t.energy_app energy
  | Runtime_work ->
      t.time_runtime <- Time.add t.time_runtime dt;
      t.energy_runtime <- Energy.add t.energy_runtime energy
  | Monitor_work ->
      t.time_monitor <- Time.add t.time_monitor dt;
      t.energy_monitor <- Energy.add t.energy_monitor energy);
  if Obs.metrics_enabled t.obs then begin
    Obs.observe_us t.obs h_consume (Time.to_us dt);
    Obs.set_gauge t.obs g_energy_app (Energy.to_uj t.energy_app);
    Obs.set_gauge t.obs g_energy_runtime (Energy.to_uj t.energy_runtime);
    Obs.set_gauge t.obs g_energy_monitor (Energy.to_uj t.energy_monitor);
    Obs.set_gauge t.obs g_capacitor
      (Energy.to_uj (Capacitor.level t.capacitor))
  end

let schedule_failure t ~at =
  t.scheduled_failures <-
    List.sort Time.compare (at :: t.scheduled_failures)

(* Pop the first scheduled failure that lands strictly inside the window
   [start, start + duration).  Entries already in the past (e.g. times
   that fell into an off-period) are dropped so they cannot shadow later
   ones. *)
let rec pop_scheduled_failure t ~start ~duration =
  match t.scheduled_failures with
  | at :: rest when Time.(at < start) ->
      t.scheduled_failures <- rest;
      pop_scheduled_failure t ~start ~duration
  | at :: rest when Time.(at < Time.add start duration) ->
      t.scheduled_failures <- rest;
      Some (Time.sub at start)
  | _ -> None

let handle_power_failure t ~during =
  t.failures <- t.failures + 1;
  record t (Event.Power_failure { during_task = during });
  Nvm.power_failure t.nvm;
  match Charging_policy.recharge t.policy ~now:(sim_time t) ~capacitor:t.capacitor with
  | None ->
      t.starved <- true;
      record t (Event.Horizon_reached { reason = "harvester starved" });
      Starved
  | Some delay ->
      let t0 = if Obs.tracing_enabled t.obs then Obs.now_us t.obs else 0 in
      Clock.advance_off t.clock delay;
      t.off <- Time.add t.off delay;
      Clock.record_reboot t.clock;
      if Obs.tracing_enabled t.obs then
        Obs.span t.obs ~cat:"power" ~begin_us:t0
          ~end_us:(Obs.now_us t.obs) "charging";
      Obs.observe_us t.obs h_charging (Time.to_us delay);
      record t (Event.Reboot { charging_delay = delay });
      Interrupted

let force_power_failure t ?during () =
  if t.starved then Starved else handle_power_failure t ~during

let consume t category ?during ~power ~duration () =
  if Time.is_negative duration then invalid_arg "Device.consume: negative duration";
  if t.starved then Starved
  else
    let forced = pop_scheduled_failure t ~start:(sim_time t) ~duration in
    match forced with
    | Some offset -> (
        (* Run up to the injected failure point, then brown out.  The
           capacitor may deplete before the injection point is reached;
           in that case the device browns out at the depletion point and
           only the energy actually drawn is accounted, mirroring the
           [Depleted drawn] branch below. *)
        let partial_energy = Energy.consumed power offset in
        match Capacitor.drain t.capacitor partial_energy with
        | Capacitor.Drained ->
            Clock.advance t.clock offset;
            account t category offset partial_energy;
            handle_power_failure t ~during
        | Capacitor.Depleted drawn ->
            let partial = Energy.time_to_consume power drawn in
            Clock.advance t.clock partial;
            account t category partial drawn;
            handle_power_failure t ~during)
    | None ->
        if Energy.to_uw power <= 0. then begin
          Clock.advance t.clock duration;
          account t category duration Energy.zero;
          Completed
        end
        else
          let want = Energy.consumed power duration in
          (match Capacitor.drain t.capacitor want with
          | Capacitor.Drained ->
              Clock.advance t.clock duration;
              account t category duration want;
              Completed
          | Capacitor.Depleted drawn ->
              let partial = Energy.time_to_consume power drawn in
              Clock.advance t.clock partial;
              account t category partial drawn;
              handle_power_failure t ~during)

let horizon_exceeded t = t.starved || Time.(sim_time t > t.horizon)

let time_in t = function
  | App -> t.time_app
  | Runtime_work -> t.time_runtime
  | Monitor_work -> t.time_monitor

let energy_in t = function
  | App -> t.energy_app
  | Runtime_work -> t.energy_runtime
  | Monitor_work -> t.energy_monitor

let off_time t = t.off

let total_energy t =
  Energy.add t.energy_app (Energy.add t.energy_runtime t.energy_monitor)

let power_failures t = t.failures
let reboots t = Clock.reboots t.clock
