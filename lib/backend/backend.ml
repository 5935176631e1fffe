module Nvm = Artemis_nvm.Nvm
module Site = Artemis_nvm.Site
module Device = Artemis_device.Device
module Cost_model = Artemis_device.Cost_model
module Task = Artemis_task.Task

type outcome = Committed | Interrupted

type instance = {
  recover : unit -> unit;
  execute :
    task:Task.t ->
    context:(unit -> Task.context) ->
    commit:(unit -> unit) ->
    outcome;
  fram_bytes : unit -> int;
}

type b = {
  name : string;
  description : string;
  injection_sites : Site.t list;
  setup :
    model:Cost_model.t ->
    Device.t ->
    Task.app ->
    instance;
}

let consume_cycles model device ?during cycles =
  Device.consume device Device.Runtime_work ?during
    ~power:(Cost_model.overhead_power model)
    ~duration:(Cost_model.cycles_to_time model cycles)
    ()

(* The reference backend: the paper's ARTEMIS task-transaction protocol
   (task body inside one NVM transaction that also flips the scheduler
   cursor; ImmortalThreads-style monitor calls are layered above by the
   runtime).  It allocates no cells of its own and must reproduce the
   pre-refactor [Runtime.execute_task] behaviour exactly - the runtime
   matrix measures every other backend against it. *)
let immortal =
  {
    name = "immortal";
    description = "ARTEMIS task transactions (ImmortalThreads-style reference)";
    injection_sites = [];
    setup =
      (fun ~model:_ device _app ->
        let nvm = Device.nvm device in
        {
          recover = (fun () -> ());
          execute =
            (fun ~task ~context ~commit ->
              Nvm.begin_tx nvm;
              match
                Device.consume device Device.App ~during:task.Task.name
                  ~power:task.Task.power ~duration:task.Task.duration ()
              with
              | Device.Interrupted | Device.Starved ->
                  (* the open transaction was rolled back by the power
                     failure *)
                  Interrupted
              | Device.Completed ->
                  task.Task.body (context ());
                  commit ();
                  Nvm.commit_tx nvm;
                  Committed);
          fram_bytes = (fun () -> 0);
        });
  }
