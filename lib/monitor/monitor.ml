open Artemis_nvm
open Artemis_fsm
module Obs = Artemis_obs.Obs

let m_steps = Obs.counter "monitor_steps"
let m_failures = Obs.counter "monitor_failures"

type engine = Interpreted | Table

let engines = [ ("interpreted", Interpreted); ("table", Table) ]

(* The table engine keeps its working state in registers, but the FRAM
   cells must stay authoritative for crash recovery: the instance's sinks
   write each assignment through to its cell in program order (so NVM
   write counts and injection-site hits match the interpreter), and the
   registers are refreshed from the cells whenever they may have diverged
   - after a transaction abort or power failure (tracked by the store's
   [Nvm.revert_count]) or an out-of-band cell write (reset, persistent
   state migration), which forces [synced_at] back to [min_int]. *)
type table_rt = {
  tinst : Table.inst;
  nvm : Nvm.t;
  mutable synced_at : int;  (* revert_count at the last register refresh *)
}

type exec = Run_table of table_rt | Run_interp of Interp.store

type t = {
  obs : Obs.t;  (* the owning device's recording surface *)
  table : Table.t;  (* the one lowering: interning tables and table code *)
  state_cell : int Nvm.cell;  (* interned state id *)
  var_cells : Ast.value Nvm.cell array;  (* indexed by variable slot *)
  exec : exec;
}

let create ?(engine = Table) ?cell_prefix nvm table =
  let prefix =
    match cell_prefix with
    | Some p -> p
    | None -> Table.name table
  in
  let state_cell =
    Nvm.cell nvm ~region:Monitor ~name:(prefix ^ ".state") ~bytes:2
      (Table.initial_state table)
  in
  let var_cells =
    Array.map
      (fun (v : Ast.var_decl) ->
        Nvm.cell nvm ~region:Monitor
          ~name:(prefix ^ "." ^ v.Ast.var_name)
          ~bytes:(Ast.ty_bytes v.Ast.ty) v.Ast.init)
      (Table.var_decls table)
  in
  (* The generated C keeps each property's parameters (limits, dependent
     task pointer, action fields) in an FRAM-resident property_t struct
     (Figure 10); the interpreter holds them in the machine AST instead,
     so the deployed footprint is accounted for explicitly. *)
  let property_table_bytes = 24 in
  ignore
    (Nvm.cell nvm ~region:Monitor ~name:(prefix ^ ".property_t")
       ~bytes:property_table_bytes ());
  let exec =
    match engine with
    | Table ->
        (* the var sink must read back the register it just wrote, so it
           needs the instance being constructed: tie the knot via a ref *)
        let self = ref None in
        let tinst =
          Table.instance table
            ~var_sink:(fun slot ->
              match !self with
              | Some i ->
                  Nvm.write_join var_cells.(slot) (Table.read_var table i slot)
              | None -> ())
            ~state_sink:(fun id -> Nvm.write_join state_cell id)
        in
        self := Some tinst;
        Run_table { tinst; nvm; synced_at = min_int }
    | Interpreted ->
        (* the reference semantics resolves names through the interning
           tables, so both engines share the exact same FRAM cells *)
        let slot_exn x =
          match Table.var_id table x with
          | slot -> slot
          | exception Not_found ->
              raise
                (Interp.Runtime_error (Printf.sprintf "unknown variable %S" x))
        in
        Run_interp
          {
            Interp.get = (fun x -> Nvm.read var_cells.(slot_exn x));
            set = (fun x v -> Nvm.write_join var_cells.(slot_exn x) v);
            get_state = (fun () -> Table.state_name table (Nvm.read state_cell));
            set_state =
              (fun s -> Nvm.write_join state_cell (Table.state_id table s));
          }
  in
  { obs = Nvm.obs nvm; table; state_cell; var_cells; exec }

let name t = Table.name t.table
let machine t = Table.machine t.table
let engine t = match t.exec with Run_table _ -> Table | Run_interp _ -> Interpreted
let table t = t.table

(* Reset/reinit writes join any enclosing transaction (write_join) so a
   path restart can make the whole monitor re-initialisation atomic. *)
(* any write to the cells that bypasses the table instance's sinks must
   force a register refresh before the next table step *)
let invalidate_registers t =
  match t.exec with Run_table rt -> rt.synced_at <- min_int | Run_interp _ -> ()

let hard_reset t =
  Nvm.write_join t.state_cell (Table.initial_state t.table);
  Array.iteri
    (fun slot (v : Ast.var_decl) -> Nvm.write_join t.var_cells.(slot) v.Ast.init)
    (Table.var_decls t.table);
  invalidate_registers t

let reinitialize t =
  Nvm.write_join t.state_cell (Table.initial_state t.table);
  Array.iteri
    (fun slot (v : Ast.var_decl) ->
      if not v.Ast.persistent then Nvm.write_join t.var_cells.(slot) v.Ast.init)
    (Table.var_decls t.table);
  invalidate_registers t

let step t event =
  Obs.incr t.obs m_steps;
  let failures =
    match t.exec with
    | Run_table rt ->
        (* registers go stale only after a rollback (revert counter) or an
           out-of-band cell write ([invalidate_registers]); on the
           steady-state path this is one integer compare *)
        let rc = Nvm.revert_count rt.nvm in
        if rt.synced_at <> rc then begin
          Table.set_state rt.tinst (Nvm.read t.state_cell);
          let cells = t.var_cells in
          for slot = 0 to Array.length cells - 1 do
            Table.load_var t.table rt.tinst slot (Nvm.read cells.(slot))
          done;
          rt.synced_at <- rc
        end;
        Table.step t.table rt.tinst event
    | Run_interp store -> Interp.step (Table.machine t.table) store event
  in
  (match failures with [] -> () | fs -> Obs.add t.obs m_failures (List.length fs));
  failures

let current_state t = Table.state_name t.table (Nvm.read t.state_cell)

let read_var t x =
  match Table.var_id t.table x with
  | slot -> Nvm.read t.var_cells.(slot)
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Monitor.read_var: monitor %S has no variable %S"
           (Table.name t.table) x)

(* --- live adaptation (PR 4): persistent-state hand-over --- *)

(* A replacement monitor may keep its predecessor's [persistent]
   variables only when every one of them has a same-named, same-typed
   persistent counterpart in the predecessor; otherwise the adaptation
   protocol falls back to hard-reset semantics (fresh initial values). *)
let compatible_layout ~from t =
  Array.for_all
    (fun (v : Ast.var_decl) ->
      (not v.Ast.persistent)
      || Array.exists
           (fun (w : Ast.var_decl) ->
             w.Ast.persistent
             && String.equal w.Ast.var_name v.Ast.var_name
             && w.Ast.ty = v.Ast.ty)
           (Table.var_decls from.table))
    (Table.var_decls t.table)

(* Copy persistent values from the retiring monitor into the replacement.
   Each copy is a plain [Nvm.write]: individually durable, and idempotent
   because the source cells are never touched — so the whole migration can
   be re-run from the top after a mid-migration power failure without
   changing the outcome.  Returns the migrated variable names. *)
let migrate_persistent ~from t =
  Array.to_list (Table.var_decls t.table)
  |> List.filter_map (fun (v : Ast.var_decl) ->
         if not v.Ast.persistent then None
         else
           match Table.var_id from.table v.Ast.var_name with
           | exception Not_found -> None
           | old_slot ->
               let w = (Table.var_decls from.table).(old_slot) in
               if w.Ast.persistent && w.Ast.ty = v.Ast.ty then (
                 let slot = Table.var_id t.table v.Ast.var_name in
                 Nvm.write t.var_cells.(slot) (Nvm.read from.var_cells.(old_slot));
                 Some v.Ast.var_name)
               else None)
  |> fun migrated ->
  invalidate_registers t;
  migrated

let watches_task t task = Table.mentions_task t.table task
let watches_event t (event : Interp.event) = watches_task t event.Interp.task
