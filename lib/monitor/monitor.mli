(** A deployed monitor: an intermediate-language machine whose variables
    and control state live in simulated FRAM, so that - like the
    ImmortalThreads-generated C monitors of Section 4.2.3 - it survives
    power failures without losing track of the properties it checks.

    A monitor is deployed from a machine already lowered by
    {!Table.compile}: variables live in a slot-indexed array of FRAM
    cells, the control state is an interned id, and event dispatch is a
    dense table lookup - the per-event path does no list scans or string
    comparisons.  The same lowering supplies the interning tables and
    watched-task index for either engine, and it is the value the
    energy-admissibility analysis bounds, so each property is lowered
    exactly once. *)

open Artemis_nvm
open Artemis_fsm

type t

type engine =
  | Interpreted
      (** Reference semantics: {!Interp.step} over the AST.  Kept for
          differential testing and the interpreted-vs-table bench. *)
  | Table
      (** The deployed engine ({!Table.step}): dense dispatch plus postfix
          bytecode over an int/float register file - the structure the
          energy-admissibility bound analyses.  The FRAM cells stay
          authoritative: registers are refreshed from the cells before a
          step whenever they may be stale, and every assignment is
          written through to its cell in program order, so footprint
          accounting and crash recovery are identical to the
          interpreter's. *)

val engines : (string * engine) list
(** Every engine under its command-line and fleet-spec name, in
    declaration order.  The binaries' [--engine] options and the fleet
    runner's ["engines"] axis are all built from this one table. *)

val create : ?engine:engine -> ?cell_prefix:string -> Nvm.t -> Table.t -> t
(** Deploys the lowered machine: allocates one FRAM cell per variable
    plus a state cell, all in the [Monitor] region (their bytes are what
    Table 2 reports as monitor FRAM), and keeps [table] itself as
    {!table}.  [engine] defaults to [Table]; both engines operate on the
    same FRAM cells and are observationally equivalent.  [cell_prefix]
    overrides the machine name as the cell-name prefix — the
    live-adaptation protocol deploys replacement generations under
    ["g<N>/<machine>"] so both generations' cells coexist until the
    generation flip commits. *)

val name : t -> string
val machine : t -> Ast.machine
val engine : t -> engine

val table : t -> Table.t
(** The table the monitor was created from (interning tables, static
    trigger information; the executed code under the [Table] engine). *)

val hard_reset : t -> unit
(** First-boot initialisation ([resetMonitor], Figure 8 line 14). *)

val reinitialize : t -> unit
(** Path-restart re-initialisation: control state and ordinary variables
    reset, [persistent] variables retained (Section 3.3 and DESIGN.md
    decision 2). *)

val step : t -> Interp.event -> Interp.failure list
(** Feed one runtime event through the machine. *)

val current_state : t -> string
val read_var : t -> string -> Ast.value
(** @raise Invalid_argument for an unknown variable, naming the monitor
    and the variable. *)

(** {2 Live adaptation (PR 4)} *)

val compatible_layout : from:t -> t -> bool
(** Whether every [persistent] variable of the replacement monitor has a
    same-named, same-typed persistent counterpart in [from].  When false
    the adaptation protocol keeps the replacement's fresh initial values
    (hard-reset fallback). *)

val migrate_persistent : from:t -> t -> string list
(** Copy each compatible persistent variable's current value from [from]
    into the replacement's cells and return the migrated names.  Each copy
    is an individually-durable {!Nvm.write} and the source cells are never
    written, so re-running the migration after a mid-migration power
    failure is harmless (idempotent). *)

val watches_task : t -> string -> bool
(** Whether any trigger of the machine applies to the task (O(1); [On_any]
    machines watch every task).  Used to select the monitors a path
    restart must re-initialize and to index event dispatch. *)

val watches_event : t -> Interp.event -> bool
(** [watches_task] on the event's task. *)

val fram_bytes : t -> int
