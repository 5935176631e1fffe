open Artemis_util
open Artemis_fsm
module Nvm = Artemis_nvm.Nvm
module Site = Artemis_nvm.Site
module Monitor = Artemis_monitor.Monitor
module Suite = Artemis_monitor.Suite
module Task = Artemis_task.Task
module Spec = Artemis_spec
module To_fsm = Artemis_transform.To_fsm
module Obs = Artemis_obs.Obs

let m_staged = Obs.counter "adapt_staged"
let m_applied = Obs.counter "adapt_applied"
let m_rejected = Obs.counter "adapt_rejected"

(* --- updates and their wire form --- *)

type payload =
  | Spec_source of string
  | Machine_source of string

type update = { id : int; remove : string list; payload : payload option }

let spec_update ~id ?(remove = []) src =
  { id; remove; payload = Some (Spec_source src) }

let machine_update ~id ?(remove = []) src =
  { id; remove; payload = Some (Machine_source src) }

let removal_update ~id remove = { id; remove; payload = None }

(* The staged image is a self-describing text blob: a header (version,
   id, removals, payload kind), a "---" separator, then the payload
   source verbatim.  Its length is what the radio delivery costs. *)
let marker = "\n---\n"

let serialize u =
  let b = Buffer.create 128 in
  Buffer.add_string b "artemis-update/1\n";
  Buffer.add_string b (Printf.sprintf "id: %d\n" u.id);
  List.iter (fun r -> Buffer.add_string b (Printf.sprintf "remove: %s\n" r)) u.remove;
  (match u.payload with
  | None -> Buffer.add_string b "payload: none"
  | Some (Spec_source _) -> Buffer.add_string b "payload: spec"
  | Some (Machine_source _) -> Buffer.add_string b "payload: machines");
  Buffer.add_string b marker;
  (match u.payload with
  | None -> ()
  | Some (Spec_source s) | Some (Machine_source s) -> Buffer.add_string b s);
  Buffer.contents b

let wire_bytes u = String.length (serialize u)

let find_marker wire =
  let n = String.length wire and m = String.length marker in
  let rec go i =
    if i + m > n then None
    else if String.sub wire i m = marker then Some i
    else go (i + 1)
  in
  go 0

let deserialize wire =
  match find_marker wire with
  | None -> Error "missing payload separator"
  | Some i -> (
      let header = String.sub wire 0 i in
      let body =
        String.sub wire (i + String.length marker)
          (String.length wire - i - String.length marker)
      in
      match String.split_on_char '\n' header with
      | version :: fields when String.equal version "artemis-update/1" -> (
          let id = ref None and remove = ref [] and kind = ref None in
          let bad = ref None in
          List.iter
            (fun line ->
              match String.index_opt line ':' with
              | None -> if !bad = None then bad := Some line
              | Some j -> (
                  let key = String.sub line 0 j in
                  let value =
                    String.trim
                      (String.sub line (j + 1) (String.length line - j - 1))
                  in
                  match key with
                  | "id" -> id := int_of_string_opt value
                  | "remove" -> remove := value :: !remove
                  | "payload" -> kind := Some value
                  | _ -> if !bad = None then bad := Some line))
            fields;
          match (!bad, !id, !kind) with
          | Some line, _, _ -> Error (Printf.sprintf "bad header line %S" line)
          | None, None, _ -> Error "missing or malformed id"
          | None, Some id, Some "none" ->
              Ok { id; remove = List.rev !remove; payload = None }
          | None, Some id, Some "spec" ->
              Ok { id; remove = List.rev !remove; payload = Some (Spec_source body) }
          | None, Some id, Some "machines" ->
              Ok
                { id; remove = List.rev !remove; payload = Some (Machine_source body) }
          | None, Some _, (Some _ | None) -> Error "missing or unknown payload kind")
      | _ -> Error "unknown wire version")

(* --- adaptation scripts (the artemis_sim --adapt input) --- *)

let script_item index item =
  let module J = Json in
  let str_field name =
    match J.member name item with
    | None -> Ok None
    | Some j -> (
        match J.to_str j with
        | Some s -> Ok (Some s)
        | None -> Error (Printf.sprintf "entry %d: %S must be a string" index name))
  in
  match J.member "at" item with
  | None -> Error (Printf.sprintf "entry %d: missing \"at\" iteration" index)
  | Some at_j -> (
      match J.to_num at_j with
      | None -> Error (Printf.sprintf "entry %d: \"at\" must be a number" index)
      | Some at -> (
          let id =
            match J.member "id" item with
            | Some j -> (
                match J.to_num j with
                | Some n -> int_of_float n
                | None -> index + 1)
            | None -> index + 1
          in
          let remove =
            match J.member "remove" item with
            | None -> Ok []
            | Some j -> (
                match J.to_arr j with
                | None ->
                    Error
                      (Printf.sprintf "entry %d: \"remove\" must be an array" index)
                | Some items -> (
                    let names = List.filter_map J.to_str items in
                    if List.length names = List.length items then Ok names
                    else
                      Error
                        (Printf.sprintf
                           "entry %d: \"remove\" must contain strings" index)))
          in
          match (remove, str_field "spec", str_field "machines") with
          | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
          | Ok _, Ok (Some _), Ok (Some _) ->
              Error
                (Printf.sprintf "entry %d: give \"spec\" or \"machines\", not both"
                   index)
          | Ok remove, Ok spec, Ok machines ->
              let payload =
                match (spec, machines) with
                | Some s, None -> Some (Spec_source s)
                | None, Some s -> Some (Machine_source s)
                | None, None -> None
                | Some _, Some _ -> assert false
              in
              Ok (int_of_float at, { id; remove; payload })))

let parse_script src =
  match Json.parse src with
  | Error e -> Error ("adapt script: " ^ e)
  | Ok (Json.Arr items) ->
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match script_item i item with
            | Error e -> Error ("adapt script: " ^ e)
            | Ok entry -> go (i + 1) (entry :: acc) rest)
      in
      go 0 [] items
  | Ok _ -> Error "adapt script: expected a JSON array of updates"

(* --- the on-device protocol state --- *)

type pending = { pending_id : int; target : int }

(* The whole commit state lives in ONE cell so the generation flip — the
   only step that changes which suite is active — is a single atomic FRAM
   write: it advances [generation], clears [pending] and extends
   [applied] together.  A power failure can therefore never observe a
   torn suite (half old, half new) or an update that is both pending and
   applied. *)
type control = { generation : int; pending : pending option; applied : int list }

type migration = { monitor : string; migrated : string list; reset : bool }

type built = {
  suite : Suite.t;
  replaced : (Monitor.t * Monitor.t) list;  (* (retiring, replacement) *)
}

type t = {
  nvm : Nvm.t;
  app : Task.app;
  engine : Monitor.engine;
  buffer : string option Nvm.cell;
  control : control Nvm.cell;
  (* Host-side cache, generation -> deployment.  The OCaml heap survives
     simulated power failures (only Ram cells and the open transaction
     reset), so a crashed apply retries against the same built suite —
     which is also what makes the retry safe: building twice would
     re-allocate the generation's cells and trip duplicate detection. *)
  suites : (int, built) Hashtbl.t;
  (* Extra validate-time gate over the update's lowered machines - the
     runtime installs the energy-admissibility check here, so an
     over-budget update is refused before it can be staged into a
     generation. *)
  admission : Table.t list -> (unit, string) result;
}

type applied = { id : int; generation : int; migrations : migration list }

type outcome =
  | Idle
  | Applied of applied
  | Rejected of { id : int; reason : string }

let create ?(engine = Monitor.Table) ?(admission = fun _ -> Ok ()) nvm ~app
    suite =
  let buffer =
    Nvm.cell nvm ~region:Staging ~name:"adapt.buffer" ~bytes:512 None
  in
  let control =
    Nvm.cell nvm ~region:Staging ~name:"adapt.control" ~bytes:16
      { generation = 0; pending = None; applied = [] }
  in
  let suites = Hashtbl.create 4 in
  Hashtbl.replace suites 0 { suite; replaced = [] };
  { nvm; app; engine; buffer; control; suites; admission }

let generation t = (Nvm.read t.control).generation
let applied_ids t = List.rev (Nvm.read t.control).applied
let already_applied t id = List.mem id (Nvm.read t.control).applied
let pending_id t =
  match (Nvm.read t.control).pending with
  | Some p -> Some p.pending_id
  | None -> None

let active t = (Hashtbl.find t.suites (generation t)).suite

let stage t update =
  Nvm.fire t.nvm Site.rt_adapt_stage_before;
  let wire = serialize update in
  (* Two single-cell writes, bytes first: a crash between them leaves an
     orphaned buffer and no pending marker — nothing to recover, the next
     stage simply overwrites it.  The pending marker is what arms the
     apply path. *)
  Nvm.write t.buffer (Some wire);
  let c = Nvm.read t.control in
  Nvm.write t.control
    { c with pending = Some { pending_id = update.id; target = c.generation + 1 } };
  Obs.incr (Nvm.obs t.nvm) m_staged;
  Nvm.fire t.nvm Site.rt_adapt_stage_after;
  String.length wire

(* --- validation (the device refuses an update rather than deploying a
   broken suite) --- *)

(* Every machine is lowered here, once: [Table.compile] typechecks it,
   and its watched tasks must all exist in the app.  These tables are
   what the admission gate bounds and what [build] deploys. *)
let payload_tables ~app = function
  | Spec_source src -> (
      match Spec.Parser.parse src with
      | Error e -> Error ("spec: " ^ e)
      | Ok spec -> (
          match Spec.Validate.check app spec with
          | Error issues -> Error (Spec.Validate.issues_to_string issues)
          | Ok () -> (
              match Spec.Consistency.(errors (check app spec)) with
              | [] -> Ok (List.map Table.compile (To_fsm.spec spec))
              | errs -> Error (Spec.Consistency.to_string errs))))
  | Machine_source src -> (
      match Parser.parse src with
      | Error e -> Error ("machines: " ^ e)
      | Ok [] -> Error "machines: empty payload"
      | Ok machines -> (
          let tasks = Task.task_names app in
          let lower m =
            let table = Table.compile m in
            match
              List.find_opt
                (fun task -> not (List.mem task tasks))
                (Table.watched_tasks table)
            with
            | Some task ->
                failwith
                  (Printf.sprintf "machine %S watches unknown task %S"
                     (Table.name table) task)
            | None -> table
          in
          match List.map lower machines with
          | tables -> Ok tables
          | exception Failure msg -> Error msg))

(* Structural validation first, then the installed admission gate (the
   runtime's energy-admissibility analysis) over the update's lowered
   machines.  A pure removal validates against the empty table list. *)
let validate t update =
  let current = active t in
  let missing =
    List.filter (fun name -> Suite.find current name = None) update.remove
  in
  let tables =
    if missing <> [] then
      Error
        (Printf.sprintf "remove: no deployed monitor named %s"
           (String.concat ", " missing))
    else
      match update.payload with
      | None when update.remove = [] ->
          Error "empty update (no removals, no payload)"
      | None -> Ok []
      | Some payload -> payload_tables ~app:t.app payload
  in
  match tables with
  | Error _ as e -> e
  | Ok tables -> Result.map (fun () -> tables) (t.admission tables)

(* --- building the next generation --- *)

(* Cell allocation never fires an injection probe, so the whole build is
   injection-atomic; the only durable effects are fresh cells at their
   initial values, inert until the flip.  Replacement and added monitors
   live under a "g<N>/" prefix so both generations' cells coexist. *)
let build t ~target update tables =
  match Hashtbl.find_opt t.suites target with
  | Some b -> b
  | None ->
      let current = (Hashtbl.find t.suites (target - 1)).suite in
      let fresh_monitor table =
        Monitor.create ~engine:t.engine
          ~cell_prefix:(Printf.sprintf "g%d/%s" target (Table.name table))
          t.nvm table
      in
      let named m table = String.equal (Monitor.name m) (Table.name table) in
      let kept =
        List.filter
          (fun m -> not (List.mem (Monitor.name m) update.remove))
          (Suite.monitors current)
      in
      (* replacements are created first, in deployment order, then the
         additions: the order their cells are allocated in *)
      let replaced =
        List.filter_map
          (fun m ->
            Option.map
              (fun table -> (m, fresh_monitor table))
              (List.find_opt (named m) tables))
          kept
      in
      let survivors =
        List.map (fun m -> Option.value (List.assq_opt m replaced) ~default:m) kept
      in
      let added =
        List.filter (fun table -> not (List.exists (fun m -> named m table) kept)) tables
      in
      let suite = Suite.of_monitors (survivors @ List.map fresh_monitor added) in
      let b = { suite; replaced } in
      Hashtbl.replace t.suites target b;
      b

let reject t (c : control) id reason =
  (* Both writes are individually atomic; clearing [pending] first means
     a crash between them can only leave an orphaned buffer, which the
     next stage overwrites. *)
  Nvm.write t.control { c with pending = None };
  Nvm.write t.buffer None;
  Obs.incr (Nvm.obs t.nvm) m_rejected;
  Rejected { id; reason }

let apply ?(commit_extra = fun (_ : applied) -> ()) t =
  let c = Nvm.read t.control in
  match c.pending with
  | None -> Idle
  | Some { pending_id = id; target } -> (
      match Nvm.read t.buffer with
      | None -> reject t c id "staging buffer empty (torn stage)"
      | Some wire -> (
          match deserialize wire with
          | Error reason -> reject t c id ("undecodable update: " ^ reason)
          | Ok update when update.id <> id ->
              reject t c id "staged bytes do not match the pending id"
          | Ok update -> (
              match validate t update with
              | Error reason ->
                  Nvm.fire t.nvm Site.rt_adapt_validate_after;
                  reject t c id reason
              | Ok tables ->
                  Nvm.fire t.nvm Site.rt_adapt_validate_after;
                  let b = build t ~target update tables in
                  (* Migration writes only touch the replacement's cells
                     (the retiring monitor is read-only here), so re-running
                     it after a mid-migration crash is idempotent. *)
                  Nvm.fire t.nvm Site.rt_adapt_migrate_before;
                  let migrations =
                    List.map
                      (fun (old_m, new_m) ->
                        if Monitor.compatible_layout ~from:old_m new_m then
                          {
                            monitor = Monitor.name new_m;
                            migrated = Monitor.migrate_persistent ~from:old_m new_m;
                            reset = false;
                          }
                        else
                          { monitor = Monitor.name new_m; migrated = []; reset = true })
                      b.replaced
                  in
                  Nvm.fire t.nvm Site.rt_adapt_migrate_after;
                  let a = { id; generation = target; migrations } in
                  (* Commit: the control flip and any caller bookkeeping
                     (the runtime's journal entry) join one NVM transaction,
                     so "the suite changed" and "the journal says so" are a
                     single atomic step. *)
                  Nvm.fire t.nvm Site.rt_adapt_flip_before;
                  Nvm.begin_tx t.nvm;
                  Nvm.tx_write t.control
                    { generation = target; pending = None; applied = id :: c.applied };
                  commit_extra a;
                  Nvm.commit_tx t.nvm;
                  Nvm.fire t.nvm Site.rt_adapt_flip_after;
                  Nvm.write t.buffer None;
                  Nvm.fire t.nvm Site.rt_adapt_clear_after;
                  Obs.incr (Nvm.obs t.nvm) m_applied;
                  Applied a)))
