module Prng = Artemis_util.Prng
module Nvm = Artemis_nvm.Nvm
module Site = Artemis_nvm.Site
module Device = Artemis_device.Device
module Cost_model = Artemis_device.Cost_model
module Event = Artemis_trace.Event
module Task = Artemis_task.Task

type outcome = Committed | Interrupted

type instance = {
  recover : unit -> unit;
  execute : task:Task.t -> prng:Prng.t -> commit:(unit -> unit) -> outcome;
}

type b = {
  name : string;
  injection_sites : Site.t list;
  setup :
    model:Cost_model.t ->
    Device.t ->
    Task.app ->
    instance;
}

(* One all-or-nothing task attempt (Section 3.1): the body runs inside one
   NVM transaction that commits at task end.  The body's context is built
   only after the task's energy was consumed, so [now] is the completion
   time.  A power failure (or starvation) anywhere before the close has
   already rolled the open transaction back. *)
let attempt ?(seal = fun () -> Device.Completed) ?close device ~task ~prng
    ~commit =
  let nvm = Device.nvm device in
  Nvm.begin_tx nvm;
  match
    Device.consume device Device.App ~during:task.Task.name
      ~power:task.Task.power ~duration:task.Task.duration ()
  with
  | Device.Interrupted | Device.Starved -> Interrupted
  | Device.Completed -> (
      task.Task.body { Task.nvm; now = Device.now device; prng };
      commit ();
      let closed =
        match close with
        | Some close -> close task
        | None -> (
            match seal () with
            | Device.Interrupted | Device.Starved -> Interrupted
            | Device.Completed ->
                Nvm.commit_tx nvm;
                Committed)
      in
      match closed with
      | Interrupted -> Interrupted
      | Committed ->
          (* Commit strictly before the completion record: the record
             chokepoint feeds observers like the input-freshness tracker
             (Consistency.Freshness via Device.set_on_record), whose
             stamps must describe durable data.  A crash between the
             two loses only the event - the tracker recovers it from the
             task's earlier Task_started (its pending-stamp protocol). *)
          Device.record device (Event.Task_completed { task = task.Task.name });
          Committed)

(* The reference backend: the paper's ARTEMIS task-transaction protocol
   (task body inside one NVM transaction that also flips the scheduler
   cursor; ImmortalThreads-style monitor calls are layered above by the
   runtime).  It allocates no cells of its own - the runtime matrix
   measures every other backend against it. *)
let immortal =
  {
    name = "immortal";
    injection_sites = [];
    setup =
      (fun ~model:_ device _app ->
        { recover = (fun () -> ()); execute = attempt device });
  }
