module Nvm = Artemis_nvm.Nvm
module Site = Artemis_nvm.Site
module Device = Artemis_device.Device
module Cost_model = Artemis_device.Cost_model
module Event = Artemis_trace.Event
module Task = Artemis_task.Task
module Backend = Artemis_backend.Backend

module Chaos = struct
  let torn_commit_log = ref false

  let reset () = torn_commit_log := false
end

(* Two-phase commit costs in MCU cycles: cheaper than a TICS-style
   checkpoint, and paid only on successful completion. *)
let log_base_cycles = 60
let log_cycles_per_cell = 40
let swap_base_cycles = 40
let swap_cycles_per_cell = 30

(* The sealed commit log: [Some (task, cells)] from the instant the
   write set is durably promised until the swap publishes it.  Plain
   data only (the redo thunks live host-side), so the region digests
   used by the faultsim oracles stay meaningful. *)
type log = (string * string list) option

(* Under [Chaos.torn_commit_log] the recovery swap loses the youngest
   Application-region entry of the redo log - the seeded "broken swap"
   the task-atomicity oracle must catch. *)
let drop_newest_application entries =
  let rec go = function
    | [] -> []
    | (_, Nvm.Application, _) :: rest -> rest
    | e :: rest -> e :: go rest
  in
  List.rev (go (List.rev entries))

let setup ~model device _app =
  let nvm = Device.nvm device in
  let log : log Nvm.cell =
    Nvm.cell nvm ~region:Runtime ~name:"alpaca.log" ~bytes:16 None
  in
  (* Host-side redo thunks (captured values, not pending views): like
     every host-side mirror of durable state, they survive simulated
     power failures; the durable [log] cell is what decides whether
     they are authoritative. *)
  let redo = ref [] in
  let consume = Cost_model.consume model device in
  (* Phase two: publish a sealed log onto committed state and clear the
     seal.  Idempotent - the redo thunks carry frozen values - so every
     reboot inside the window simply re-runs it.  [recovery] marks calls
     that finish a commit the crashed attempt could not report: they own
     the task's completion record. *)
  let rec swap ~recovery =
    match Nvm.read log with
    | None -> true
    | Some (task_name, names) -> (
        Nvm.fire nvm Site.alpaca_swap_before;
        match
          consume ~during:"alpaca.swap"
            (swap_base_cycles + (swap_cycles_per_cell * List.length names))
        with
        | Device.Starved -> false
        | Device.Interrupted ->
            (* the reboot re-enters recovery; retry on the fresh charge *)
            if Device.horizon_exceeded device then false else swap ~recovery
        | Device.Completed ->
            let entries =
              if recovery && !Chaos.torn_commit_log then
                drop_newest_application !redo
              else !redo
            in
            List.iter (fun (_, _, apply) -> apply ()) entries;
            Nvm.write log None;
            redo := [];
            (* Clear strictly before the completion record, as
               [Backend.attempt] commits before its own: a crash between
               the two loses only the event. *)
            if recovery then
              Device.record device (Event.Task_completed { task = task_name });
            Nvm.fire nvm Site.alpaca_swap_after;
            true)
  in
  (* Alpaca's close.  Privatization: the open transaction's pending views
     are the task's scratch buffers - reads see them, committed state does
     not, and a power failure anywhere before the log seals discards them
     wholesale.  Phase one freezes the write set and seals it behind the
     single durable [log] write - the commit point. *)
  let log_then_swap (task : Task.t) =
    let entries = Nvm.capture_tx nvm in
    match
      consume ~during:"alpaca.log"
        (log_base_cycles + (log_cycles_per_cell * List.length entries))
    with
    | Device.Interrupted | Device.Starved ->
        (* the power failure aborted the open transaction; the log never
           sealed, so the captured set is void *)
        Backend.Interrupted
    | Device.Completed ->
        Nvm.fire nvm Site.alpaca_log_before;
        redo := entries;
        Nvm.write log
          (Some (task.Task.name, List.map (fun (n, _, _) -> n) entries));
        Nvm.fire nvm Site.alpaca_log_after;
        (* the scratch buffers are spent: the sealed log is now the
           authoritative carrier of the write set *)
        Nvm.drop_tx nvm;
        if swap ~recovery:false then Backend.Committed else Backend.Interrupted
  in
  {
    Backend.recover = (fun () -> ignore (swap ~recovery:true));
    execute = Backend.attempt ~close:log_then_swap device;
  }

let backend =
  {
    Backend.name = "alpaca";
    (* the four crash windows of the two-phase commit *)
    injection_sites =
      Site.[ alpaca_log_before; alpaca_log_after; alpaca_swap_before;
             alpaca_swap_after ];
    setup;
  }
