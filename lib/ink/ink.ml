open Artemis_util
module Nvm = Artemis_nvm.Nvm
module Device = Artemis_device.Device
module Report = Artemis_device.Report
module Event = Artemis_trace.Event
module Stats = Artemis_trace.Stats
module Cost_model = Artemis_device.Cost_model
module Task = Artemis_task.Task
module Backend = Artemis_backend.Backend

type thread = {
  thread_name : string;
  priority : int;
  tasks : Task.t list;
  expiry : Time.t option;
}

type armed = { thread : thread; arrival : Time.t }

let validate armed_list =
  let ( let* ) r f = Result.bind r f in
  let* () = if armed_list = [] then Error "no armed threads" else Ok () in
  let names = List.map (fun a -> a.thread.thread_name) armed_list in
  let* () =
    if List.length (List.sort_uniq String.compare names) = List.length names
    then Ok ()
    else Error "thread names must be unique"
  in
  let* () =
    match List.find_opt (fun a -> a.thread.tasks = []) armed_list with
    | Some a -> Error (Printf.sprintf "thread %S has an empty chain" a.thread.thread_name)
    | None -> Ok ()
  in
  if List.exists (fun a -> Time.is_negative a.arrival) armed_list then
    Error "negative arrival time"
  else Ok ()

(* The WAR-analysis surface (PR 7): every distinct task body across all
   armed threads, in scheduling-surface order.  InK runs each task
   inside a transaction exactly like the ARTEMIS runtime, so the same
   read-then-plain-write rule applies. *)
let bodies armed_list =
  Task.distinct_bodies (List.concat_map (fun a -> a.thread.tasks) armed_list)

(* InK kernel bookkeeping per task event, in MCU cycles *)
let kernel_cycles_per_event = 320

type thread_state = Alive | Finished | Evicted

(* Per-thread persistent progress: one atomic cell each. *)
type progress = { next_task : int; state : thread_state }

type outcome = {
  stats : Stats.t;
  completed_threads : string list;
  evicted_threads : string list;
}

type state = {
  device : Device.t;
  armed : armed array;
  cells : progress Nvm.cell array;
  prng : Prng.t;
  mutable completion_order : string list;  (* reverse order *)
}

let make_state device armed_list =
  (match validate armed_list with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Ink.run: invalid threads: " ^ msg));
  let nvm = Device.nvm device in
  let armed = Array.of_list armed_list in
  let cells =
    Array.mapi
      (fun i a ->
        Nvm.cell nvm ~region:Runtime
          ~name:(Printf.sprintf "ink.thread.%d.%s" i a.thread.thread_name)
          ~bytes:3
          { next_task = 0; state = Alive })
      armed
  in
  {
    device;
    armed;
    cells;
    prng = Prng.create ~seed:42;
    completion_order = [];
  }

(* Highest priority among alive threads whose event has arrived; FIFO by
   arrival, then index, among equals. *)
let pick st =
  let now = Device.now st.device in
  let best = ref None in
  Array.iteri
    (fun i a ->
      if (Nvm.read st.cells.(i)).state = Alive && Time.(a.arrival <= now) then
        match !best with
        | None -> best := Some i
        | Some j ->
            let b = st.armed.(j) in
            if
              a.thread.priority > b.thread.priority
              || (a.thread.priority = b.thread.priority
                 && Time.(a.arrival < b.arrival))
            then best := Some i)
    st.armed;
  !best

let earliest_pending st =
  let now = Device.now st.device in
  Array.to_list st.armed
  |> List.mapi (fun i a -> (i, a))
  |> List.filter (fun (i, a) ->
         (Nvm.read st.cells.(i)).state = Alive && Time.(a.arrival > now))
  |> List.fold_left
       (fun acc (_, a) ->
         match acc with
         | None -> Some a.arrival
         | Some t -> Some (Time.min t a.arrival))
       None

let run_thread_step st i =
  let a = st.armed.(i) in
  let progress = Nvm.read st.cells.(i) in
  let task = List.nth a.thread.tasks progress.next_task in
  Device.record st.device
    (Event.Task_started { task = task.Task.name; attempt = 1 });
  (* the standalone loop is priced by the default calibration *)
  match
    Cost_model.consume Cost_model.default st.device kernel_cycles_per_event
  with
  | Device.Interrupted | Device.Starved -> ()
  | Device.Completed -> (
      (* fixed reaction: evict the whole thread when the triggering
         event's data has expired (Table 3) *)
      let expired =
        match a.thread.expiry with
        | None -> false
        | Some window ->
            Time.(Time.sub (Device.now st.device) a.arrival > window)
      in
      if expired then begin
        Device.record st.device
          (Event.Runtime_action
             { action = "evictThread " ^ a.thread.thread_name; task = task.Task.name });
        Nvm.write st.cells.(i) { progress with state = Evicted }
      end
      else begin
        let next_task = progress.next_task + 1 in
        let finished = next_task >= List.length a.thread.tasks in
        match
          Backend.attempt st.device ~task ~prng:st.prng
            ~commit:(fun () ->
              Nvm.tx_write st.cells.(i)
                { next_task; state = (if finished then Finished else Alive) })
        with
        | Backend.Committed when finished ->
            st.completion_order <- a.thread.thread_name :: st.completion_order
        | Backend.Committed | Backend.Interrupted -> ()
      end)

let finish st stats =
  let evicted =
    Array.to_list st.armed
    |> List.mapi (fun i a -> (i, a))
    |> List.filter_map (fun (i, a) ->
           if (Nvm.read st.cells.(i)).state = Evicted then
             Some a.thread.thread_name
           else None)
  in
  {
    stats;
    completed_threads = List.rev st.completion_order;
    evicted_threads = evicted;
  }

(* --- the unified-backend adapter (PR 10) ---

   Runs ARTEMIS [Task.app] tasks under the InK execution discipline
   inside the shared runtime: every task dispatch pays the reactive
   kernel's event-handling cost before the task transaction opens, and
   the kernel's scheduling progress commits atomically with the task. *)
let backend =
  {
    Backend.name = "ink";
    injection_sites = [];
    setup =
      (fun ~model device _app ->
        let nvm = Device.nvm device in
        let sched =
          Nvm.cell nvm ~region:Runtime ~name:"inkb.sched" ~bytes:3 0
        in
        {
          Backend.recover = (fun () -> ());
          execute =
            (fun ~task ~prng ~commit ->
              match Cost_model.consume model device kernel_cycles_per_event with
              | Device.Interrupted | Device.Starved -> Backend.Interrupted
              | Device.Completed ->
                  Backend.attempt device ~task ~prng ~commit:(fun () ->
                      (* kernel progress joins the task transaction: a
                         crash re-dispatches the same event, never skips
                         one *)
                      Nvm.tx_write sched (Nvm.read sched + 1);
                      commit ()));
        });
  }

let run device armed_list =
  let st = make_state device armed_list in
  finish st @@ Report.run device
  @@ fun _ ->
  match pick st with
  | Some i ->
      run_thread_step st i;
      None
  | None -> (
      match earliest_pending st with
      | Some arrival ->
          (* idle (deep sleep) until the next event arrives *)
          let wait = Time.sub arrival (Device.now st.device) in
          ignore
            (Device.consume st.device Device.Runtime_work
               ~power:(Energy.uw 0.) ~duration:wait ());
          None
      | None -> Some Stats.Completed)
