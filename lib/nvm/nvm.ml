module Obs = Artemis_obs.Obs

type region = Runtime | Monitor | Application | Staging
type kind = Fram | Ram

exception Injected_failure of string

(* Observability: single-branch no-ops unless the registry is enabled,
   so the PR1 fast-path numbers survive (bench tracks the contract). *)
let m_writes = Obs.counter "nvm_writes"
let m_tx_writes = Obs.counter "nvm_tx_writes"
let m_tx_commits = Obs.counter "nvm_tx_commits"
let m_tx_aborts = Obs.counter "nvm_tx_aborts"
let m_power_failures = Obs.counter "nvm_power_failures"

(* Stable numbering contract for the fault-injection engine: sites are
   listed in this order, before the runtime's own sites. *)
let injection_sites =
  [
    "nvm.write.before";
    "nvm.write.after";
    "nvm.tx_write.before";
    "nvm.tx_write.after";
    "nvm.commit_tx.before";
    "nvm.commit_tx.after";
  ]

(* Test-only chaos hooks (see test/test_oracle_sensitivity.ml): each
   re-introduces a known-bad behaviour the PR2 campaigns hardened away,
   so the mutation suite can prove the oracles still detect it. *)
module Chaos = struct
  let no_write_join = ref false  (* write_join always writes through *)
  let tx_write_through = ref false  (* tx_write commits immediately *)
  let hazardous_nontx_write = ref false
  (* channel pushes bypass the task transaction (see Channel.push): the
     canonical WAR hazard the static consistency pass exists to flag *)

  let reset () =
    no_write_join := false;
    tx_write_through := false;
    hazardous_nontx_write := false
end

(* --- access recording (PR 7) ---

   The static WAR-hazard analysis observes a task body's reads and
   writes by installing a recorder and running the body once.  The
   recorder is a single optional field: the hot paths pay one branch
   when it is absent, and the access record is only allocated when a
   recording pass is active. *)

type access_op = Read_op | Write_op | Tx_write_op

type access = {
  acc_name : string;
  acc_region : region;
  acc_kind : kind;
  acc_op : access_op;
  acc_in_tx : bool;
}

type t = {
  obs : Obs.ctx;  (* recording surface; per-device since PR 5 *)
  regions : packed list array;
      (* per [region_index], each in reverse allocation order *)
  region_versions : int array;
      (* per [region_index]: bumped by every [set_committed] on one of the
         region's cells and by every registration in the region *)
  snapshots : (string * string) list array;
      (* per [region_index]: the last [snapshot_region] result, valid
         while [snapshot_versions] equals [region_versions] *)
  snapshot_versions : int array;
  names : (region * string, unit) Hashtbl.t;  (* duplicate detection *)
  footprints : int array;  (* (kind, region) -> declared bytes *)
  mutable volatiles : packed list;  (* Ram cells only *)
  mutable tx_open : bool;
  mutable tx_dirty : packed list;
      (* cells with a pending value, reverse first-write order: abort and
         power-failure rollback cost O(dirty cells), not O(all cells) *)
  mutable reverts : int;  (* aborts + power failures, see [revert_count] *)
  mutable tx_begin_us : int;  (* span start when tracing is enabled *)
  mutable probe : (string -> unit) option;
      (* fault-injection hook; fired around state-changing operations with
         the site label, and allowed to raise [Injected_failure] *)
  mutable recorder : (access -> unit) option;
      (* access-set recorder for the static WAR-hazard pass (PR 7) *)
}

and 'a cell = {
  store : t;
  name : string;
  region : region;
  kind : kind;
  initial : 'a;
  mutable committed : 'a;  (* assigned only by [set_committed] *)
  mutable version : int;  (* bumped by every [set_committed] *)
  mutable pending : 'a option;
  mutable digest : string;  (* of [committed] as of [digest_version] *)
  mutable digest_version : int;
}

(* A cell with its value type hidden, so the store can list cells of
   every type together; unboxed, so packing one allocates nothing. *)
and packed = Cell : 'a cell -> packed [@@unboxed]

let region_index = function
  | Runtime -> 0
  | Monitor -> 1
  | Application -> 2
  | Staging -> 3

let footprint_slot kind region =
  (match kind with Fram -> 0 | Ram -> 4) + region_index region

(* Every assignment to [committed] goes through here, so a cell whose
   version has not moved still holds the value it was last digested at,
   and a region whose version has not moved still has the snapshot it
   was last taken at. *)
let set_committed c v =
  c.committed <- v;
  c.version <- c.version + 1;
  let versions = c.store.region_versions and r = region_index c.region in
  versions.(r) <- versions.(r) + 1

let digest_value v = Digest.string (Marshal.to_string v [ Marshal.Closures ])

(* Re-marshals only after a [set_committed]: values are replaced, never
   mutated in place (see the [snapshot_region] contract). *)
let digest_committed c =
  if c.digest_version <> c.version then begin
    c.digest <- digest_value c.committed;
    c.digest_version <- c.version
  end;
  c.digest

let create ?obs () =
  {
    obs = (match obs with Some o -> o | None -> Obs.current ());
    regions = Array.make 4 [];
    region_versions = Array.make 4 0;
    snapshots = Array.make 4 [];
    snapshot_versions = Array.make 4 (-1);
    names = Hashtbl.create 64;
    footprints = Array.make 8 0;
    volatiles = [];
    tx_open = false;
    tx_dirty = [];
    reverts = 0;
    tx_begin_us = 0;
    probe = None;
    recorder = None;
  }

let obs t = t.obs
let set_probe t p = t.probe <- p
let fire t site = match t.probe with None -> () | Some p -> p site
let set_recorder t r = t.recorder <- r

let record_access c op =
  match c.store.recorder with
  | None -> ()
  | Some f ->
      f
        {
          acc_name = c.name;
          acc_region = c.region;
          acc_kind = c.kind;
          acc_op = op;
          acc_in_tx = c.store.tx_open;
        }

let cell t ~region ?(kind = Fram) ~name ~bytes init =
  if bytes < 0 then invalid_arg "Nvm.cell: negative size";
  if Hashtbl.mem t.names (region, name) then
    invalid_arg (Printf.sprintf "Nvm.cell: duplicate cell %S" name);
  Hashtbl.replace t.names (region, name) ();
  let c =
    { store = t; name; region; kind; initial = init; committed = init;
      version = 0; pending = None; digest = ""; digest_version = -1 }
  in
  let r = region_index region in
  t.regions.(r) <- Cell c :: t.regions.(r);
  t.region_versions.(r) <- t.region_versions.(r) + 1;
  t.footprints.(footprint_slot kind region) <-
    t.footprints.(footprint_slot kind region) + bytes;
  if kind = Ram then t.volatiles <- Cell c :: t.volatiles;
  c

let read c =
  (match c.store.recorder with None -> () | Some _ -> record_access c Read_op);
  match c.pending with Some v -> v | None -> c.committed

let write c v =
  (match (c.kind, c.pending) with
  | Fram, Some _ ->
      invalid_arg
        (Printf.sprintf "Nvm.write: cell %S has an uncommitted tx value" c.name)
  | (Fram | Ram), _ -> ());
  record_access c Write_op;
  Obs.Ctx.incr c.store.obs m_writes;
  fire c.store "nvm.write.before";
  set_committed c v;
  fire c.store "nvm.write.after"

let begin_tx t =
  if t.tx_open then invalid_arg "Nvm.begin_tx: transaction already open";
  t.tx_open <- true;
  t.tx_dirty <- [];
  if Obs.Ctx.tracing_enabled t.obs then t.tx_begin_us <- Obs.Ctx.now_us t.obs

(* The span covers begin_tx to the close; it is emitted as one balanced
   pair at the close so a crash inside the transaction (which aborts via
   [power_failure]) still produces a well-formed trace. *)
let close_tx_span t name =
  if Obs.Ctx.tracing_enabled t.obs then
    Obs.Ctx.span t.obs ~cat:"nvm" ~begin_us:t.tx_begin_us
      ~end_us:(Obs.Ctx.now_us t.obs) name

let tx_write c v =
  if not c.store.tx_open then invalid_arg "Nvm.tx_write: no open transaction";
  if c.kind = Ram then
    invalid_arg (Printf.sprintf "Nvm.tx_write: cell %S is volatile" c.name);
  record_access c Tx_write_op;
  Obs.Ctx.incr c.store.obs m_tx_writes;
  fire c.store "nvm.tx_write.before";
  (if !Chaos.tx_write_through then set_committed c v
   else begin
     (match c.pending with
     | None -> c.store.tx_dirty <- Cell c :: c.store.tx_dirty
     | Some _ -> ());
     c.pending <- Some v
   end);
  fire c.store "nvm.tx_write.after"

(* Join the ambient transaction if one is open, else write through.  Used
   by code that must be durable in isolation but atomic when an enclosing
   step wraps several updates into one commit (immortal monitor steps,
   path restarts). *)
let write_join c v =
  if c.store.tx_open && c.kind = Fram && not !Chaos.no_write_join then
    tx_write c v
  else write c v

let publish (Cell c) =
  (match c.pending with Some p -> set_committed c p | None -> ());
  c.pending <- None

let discard (Cell c) = c.pending <- None

let commit_tx t =
  if not t.tx_open then invalid_arg "Nvm.commit_tx: no open transaction";
  fire t "nvm.commit_tx.before";
  List.iter publish (List.rev t.tx_dirty);
  t.tx_dirty <- [];
  t.tx_open <- false;
  Obs.Ctx.incr t.obs m_tx_commits;
  close_tx_span t "tx";
  fire t "nvm.commit_tx.after"

(* --- checkpoint-free (Alpaca-style) commit support (PR 10) ---

   A two-phase runtime first freezes the open transaction's write set
   into standalone redo thunks ([capture_tx]), seals them behind a
   durable log cell, then closes the transaction without publishing
   anything ([drop_tx]) and replays the thunks onto committed state.
   The thunks hold the captured values, not the cells' pending views,
   so they survive the rollback a power failure performs on the open
   transaction. *)

let capture_tx t =
  if not t.tx_open then invalid_arg "Nvm.capture_tx: no open transaction";
  List.rev_map
    (fun (Cell c) ->
      let v = match c.pending with Some p -> p | None -> c.committed in
      (c.name, c.region, fun () -> set_committed c v))
    t.tx_dirty

let drop_tx t =
  if not t.tx_open then invalid_arg "Nvm.drop_tx: no open transaction";
  List.iter discard t.tx_dirty;
  t.tx_dirty <- [];
  t.tx_open <- false;
  (* the write set was captured for redo: logically this is a commit *)
  Obs.Ctx.incr t.obs m_tx_commits;
  close_tx_span t "tx"

let abort_tx t =
  if not t.tx_open then invalid_arg "Nvm.abort_tx: no open transaction";
  t.reverts <- t.reverts + 1;
  List.iter discard t.tx_dirty;
  t.tx_dirty <- [];
  t.tx_open <- false;
  Obs.Ctx.incr t.obs m_tx_aborts;
  close_tx_span t "tx_aborted"

let in_tx t = t.tx_open

let power_failure t =
  Obs.Ctx.incr t.obs m_power_failures;
  t.reverts <- t.reverts + 1;
  if t.tx_open then abort_tx t;
  List.iter (fun (Cell c) -> set_committed c c.initial) t.volatiles

let revert_count t = t.reverts

let footprint t ~kind ~region = t.footprints.(footprint_slot kind region)

(* [List.rev_map] over a reverse-allocation-order list: allocation order. *)
let cell_names t ~region =
  List.rev_map (fun (Cell c) -> c.name) t.regions.(region_index region)

(* Returns the previous list while the region's version stands: the
   values in it are never mutated, so sharing it is safe. *)
let snapshot_region t ~region =
  let r = region_index region in
  if t.snapshot_versions.(r) <> t.region_versions.(r) then begin
    t.snapshots.(r) <-
      List.rev_map (fun (Cell c) -> (c.name, digest_committed c)) t.regions.(r);
    t.snapshot_versions.(r) <- t.region_versions.(r)
  end;
  t.snapshots.(r)

let snapshot_region_logical t ~region =
  List.rev_map
    (fun (Cell c) ->
      ( c.name,
        match c.pending with
        | Some p -> digest_value p
        | None -> digest_committed c ))
    t.regions.(region_index region)
