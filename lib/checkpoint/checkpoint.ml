open Artemis_util
module Nvm = Artemis_nvm.Nvm
module Device = Artemis_device.Device
module Report = Artemis_device.Report
module Event = Artemis_trace.Event
module Stats = Artemis_trace.Stats
module Cost_model = Artemis_device.Cost_model
module Task = Artemis_task.Task
module Backend = Artemis_backend.Backend

type expiration_action = Restart_from of string | Skip_segment

type annotation = {
  data_from : string;
  within : Time.t;
  on_expire : expiration_action;
}

type segment = {
  task : Task.t;
  snapshot_bytes : int;
  freshness : annotation option;
}

let segment ~name ~duration ~power ?body ?(snapshot_bytes = 64) ?freshness () =
  let task = Task.make ~name ~duration ~power ?body () in
  if snapshot_bytes < 0 then
    invalid_arg "Checkpoint.segment: negative snapshot size";
  { task; snapshot_bytes; freshness }

let name s = s.task.Task.name

type program = { program_name : string; segments : segment list }

let index_of segments target =
  let rec go i = function
    | [] -> None
    | s :: rest -> if String.equal (name s) target then Some i else go (i + 1) rest
  in
  go 0 segments

(* The WAR-analysis surface (PR 7): segment bodies are the checkpoint
   runtime's unit of re-execution - a power failure rolls back to the
   last checkpoint and re-runs the segment, so a segment-local
   read-then-plain-write is non-idempotent exactly like a task's.
   Deduplicated by [Task.distinct_bodies]: [validate] rejects duplicate
   names, but the analysis surface must not depend on validation having
   run - the pre-fix version analyzed (and double-reported) repeated
   segments. *)
let bodies p = Task.distinct_bodies (List.map (fun s -> s.task) p.segments)

let validate p =
  let ( let* ) r f = Result.bind r f in
  let* () = if p.segments = [] then Error "program has no segments" else Ok () in
  let names = List.map name p.segments in
  let* () =
    if List.length (List.sort_uniq String.compare names) = List.length names
    then Ok ()
    else Error "segment names must be unique"
  in
  List.fold_left
    (fun acc (i, s) ->
      let* () = acc in
      match s.freshness with
      | None -> Ok ()
      | Some { data_from; on_expire; _ } -> (
          let* () =
            match index_of p.segments data_from with
            | Some j when j < i -> Ok ()
            | Some _ ->
                Error
                  (Printf.sprintf
                     "segment %S: freshness producer %S does not precede it"
                     (name s) data_from)
            | None ->
                Error
                  (Printf.sprintf "segment %S: unknown freshness producer %S"
                     (name s) data_from)
          in
          match on_expire with
          | Skip_segment -> Ok ()
          | Restart_from target -> (
              match index_of p.segments target with
              | Some j when j <= i -> Ok ()
              | Some _ ->
                  Error
                    (Printf.sprintf
                       "segment %S: Restart_from %S jumps forward" (name s)
                       target)
              | None ->
                  Error
                    (Printf.sprintf "segment %S: unknown restart target %S"
                       (name s) target))))
    (Ok ())
    (List.mapi (fun i s -> (i, s)) p.segments)

(* TICS-style protocol costs in MCU cycles, priced by the cost model *)
let checkpoint_cycles = 900
let restore_cycles = 600

type state = {
  device : Device.t;
  segments : segment array;
  (* persistent: index of the next segment to run = the checkpoint *)
  position : int Nvm.cell;
  (* persistent completion timestamps, one per producing segment *)
  completed_at : (string * Time.t option Nvm.cell) list;
  (* volatile marker: true while running between checkpoints; reset by a
     power failure, which is how the runtime knows it must restore *)
  live : bool Nvm.cell;
  prng : Prng.t;
}

(* A cold entry (after boot or failure) pays the restore cost: [live] is
   a volatile marker that a power failure resets.  True once warm. *)
let warm model device live =
  (if not (Nvm.read live) then
     match Cost_model.consume model device restore_cycles with
     | Device.Completed -> Nvm.write live true
     | Device.Interrupted | Device.Starved -> ());
  Nvm.read live

let make_state device p =
  (match validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Checkpoint.run: invalid program: " ^ msg));
  let nvm = Device.nvm device in
  let segments = Array.of_list p.segments in
  let position = Nvm.cell nvm ~region:Runtime ~name:"cp.position" ~bytes:2 0 in
  let completed_at =
    List.map
      (fun s ->
        ( name s,
          Nvm.cell nvm ~region:Runtime ~name:("cp.done." ^ name s) ~bytes:9 None ))
      p.segments
  in
  let live =
    Nvm.cell nvm ~region:Runtime ~kind:Artemis_nvm.Nvm.Ram ~name:"cp.live" ~bytes:1
      false
  in
  (* the double-buffered snapshot area, sized by the largest segment *)
  let snapshot =
    2 * Array.fold_left (fun acc s -> Stdlib.max acc s.snapshot_bytes) 0 segments
  in
  ignore (Nvm.cell nvm ~region:Runtime ~name:"cp.snapshot" ~bytes:snapshot ());
  {
    device;
    segments;
    position;
    completed_at;
    live;
    prng = Prng.create ~seed:42;
  }

let expired st (s : segment) =
  match s.freshness with
  | None -> None
  | Some ({ data_from; within; _ } as annotation) -> (
      match Nvm.read (List.assoc data_from st.completed_at) with
      | None -> None  (* producer not run yet this pass: nothing to expire *)
      | Some finished ->
          if Time.(Time.sub (Device.now st.device) finished > within) then
            Some annotation
          else None)

(* The standalone loop is priced by the default calibration. *)
let run device p =
  let st = make_state device p in
  let model = Cost_model.default in
  let seal () = Cost_model.consume model device checkpoint_cycles in
  Report.run device @@ fun _ ->
  let i = Nvm.read st.position in
  if i >= Array.length st.segments then Some Stats.Completed
  else begin
    let s = st.segments.(i) in
    (if warm model device st.live then
       match expired st s with
       | Some { on_expire; data_from; _ } -> (
           Device.record device
             (Event.Runtime_action
                {
                  action =
                    (match on_expire with
                    | Restart_from target -> "restartFrom " ^ target
                    | Skip_segment -> "skipSegment");
                  task = name s;
                });
           match on_expire with
           | Restart_from target ->
               let j = Option.get (index_of p.segments target) in
               Device.record device
                 (Event.Path_restarted
                    { path = 1; reason = "stale data from " ^ data_from });
               Nvm.write st.position j
           | Skip_segment -> Nvm.write st.position (i + 1))
       | None ->
           Device.record device
             (Event.Task_started { task = name s; attempt = 1 });
           (* the segment's data and its checkpoint commit atomically
              (double-buffered snapshot): a failure during the
              checkpoint discards the data too, so re-execution cannot
              duplicate effects; an interrupted attempt rolled back to
              the checkpoint and reset [live] *)
           ignore
             (Backend.attempt device ~task:s.task ~prng:st.prng
                ~commit:(fun () ->
                  Nvm.tx_write
                    (List.assoc (name s) st.completed_at)
                    (Some (Device.now device));
                  Nvm.tx_write st.position (i + 1))
                ~seal));
    None
  end

(* --- the unified-backend adapter (PR 10) ---

   Runs ARTEMIS [Task.app] tasks under the TICS/checkpoint commit
   protocol inside the shared runtime: a cold entry (boot or power
   failure) pays the restore before any task work, and every commit
   pays the double-buffered snapshot cost inside the task transaction,
   so the data and its checkpoint become durable atomically. *)
let backend =
  {
    Backend.name = "checkpoint";
    injection_sites = [];
    setup =
      (fun ~model device _app ->
        let nvm = Device.nvm device in
        let live =
          Nvm.cell nvm ~region:Runtime ~kind:Artemis_nvm.Nvm.Ram
            ~name:"cpb.live" ~bytes:1 false
        in
        (* the double-buffered snapshot area (fixed: the shared runtime's
           cursor+event state, not per-segment payloads) *)
        ignore (Nvm.cell nvm ~region:Runtime ~name:"cpb.snapshot" ~bytes:128 ());
        (* the task's data and its checkpoint commit atomically: a failure
           during the snapshot discards the data too *)
        let seal () = Cost_model.consume model device checkpoint_cycles in
        {
          Backend.recover = (fun () -> ());
          execute =
            (fun ~task ~prng ~commit ->
              if warm model device live then
                Backend.attempt ~seal device ~task ~prng ~commit
              else Backend.Interrupted);
        });
  }
