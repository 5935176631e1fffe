(** Power-failure-resilient live property adaptation (PR 4).

    The paper's title claim — {e adaptable} runtime monitoring — is the
    ability to change the deployed property suite at runtime without
    reprogramming the device (Section 7, Table 3's "runtime adaptation"
    row).  This module implements the device half as a two-phase,
    crash-atomic protocol over dedicated NVM {e staging} cells:

    + {b stage}: the update's wire image is written into the staging
      buffer, then a pending marker (update id, target generation) arms
      the apply path — two single-cell writes whose partial states are
      all recoverable;
    + {b validate}: the staged bytes are decoded, and {!payload_tables}
      checks the payload against the running application and lowers
      each machine once; the admission gate then bounds those tables.
      A failing update is {e rejected}, never half-deployed;
    + {b build}: replacement and added monitors are deployed from the
      validated tables through {!Artemis_monitor.Monitor.create} and
      allocated under a ["g<N>/"] cell prefix, so both generations' cells
      coexist; cell allocation fires no injection probe, making the build
      injection-atomic, and the built suite is cached per generation so a
      crashed apply retries against the same cells;
    + {b migrate}: for each replaced monitor with a compatible layout,
      [persistent] variables are copied into the new cells
      ({!Artemis_monitor.Monitor.migrate_persistent}); incompatible
      replacements fall back to hard-reset semantics.  Migration writes
      only touch the replacement's cells, so re-running it is idempotent;
    + {b flip}: one atomic write of the control cell advances the
      generation, clears the pending marker and appends to the applied-id
      list — a power failure can never observe a torn suite or an update
      that is both pending and applied.  The caller may join bookkeeping
      writes (the runtime's journal entry) to the flip transaction.

    Radio delivery is costed by the runtime through the
    [External_wireless] model using {!wire_bytes}. *)

module Nvm = Artemis_nvm.Nvm
module Monitor = Artemis_monitor.Monitor
module Suite = Artemis_monitor.Suite
module Task = Artemis_task.Task

val injection_sites : string list
(** Crash-window labels of the protocol, appended after the runtime's own
    sites in the fault-injection numbering. *)

(** {1 Updates} *)

type payload =
  | Spec_source of string  (** a property-specification block (Figure 5) *)
  | Machine_source of string  (** raw intermediate-language machines *)

type update = {
  id : int;  (** unique per deployment; the exactly-once key *)
  remove : string list;  (** deployed monitor names to retire *)
  payload : payload option;  (** new or replacement machines *)
}

val spec_update : id:int -> ?remove:string list -> string -> update
val machine_update : id:int -> ?remove:string list -> string -> update
val removal_update : id:int -> string list -> update

val serialize : update -> string
(** The wire image staged into NVM (and costed over the radio). *)

val deserialize : string -> (update, string) result
val wire_bytes : update -> int

val payload_tables :
  app:Task.app -> payload -> (Artemis_fsm.Table.t list, string) result
(** The one payload decoder, shared by the apply path and the static
    energy report.  A spec block is parsed, validated against [app]
    ({!Artemis_spec.Validate}), linted ({!Artemis_spec.Consistency}
    errors) and transformed; raw machines are parsed.  Each machine is
    then lowered once with {!Artemis_fsm.Table.compile}, which
    typechecks it, and a machine payload whose tables watch a task the
    app lacks is refused.  [Error] carries the rejection reason. *)

val parse_script : string -> ((int * update) list, string) result
(** Parse an adaptation script (the [artemis_sim --adapt] input): a JSON
    array of [{"at": K, "id": N?, "remove": [..]?, "spec": "..."? |
    "machines": "..."?}] entries, returning [(iteration, update)] pairs.
    [id] defaults to the 1-based entry position. *)

(** {1 The device-side protocol} *)

type t
(** The adaptation manager: owns the staging cells ([adapt.buffer],
    [adapt.control] in {!Nvm.region.Staging}) and the per-generation
    suite cache. *)

type migration = {
  monitor : string;
  migrated : string list;  (** persistent variables carried over *)
  reset : bool;  (** incompatible layout: hard-reset fallback *)
}

type applied = { id : int; generation : int; migrations : migration list }

type outcome =
  | Idle  (** nothing staged *)
  | Applied of applied
  | Rejected of { id : int; reason : string }

val create :
  ?engine:Monitor.engine ->
  ?admission:(Artemis_fsm.Table.t list -> (unit, string) result) ->
  Nvm.t ->
  app:Task.app ->
  Suite.t ->
  t
(** [create nvm ~app suite] installs [suite] as generation 0 and
    allocates the staging cells.  [engine] (default [Table]) is used
    for monitors built by future updates.  [admission] (default: accept
    everything) runs at the end of validation over the update's lowered
    machines, the same tables the build then deploys; the runtime
    installs the energy-admissibility check here, so an over-budget
    update is rejected with its ["energy-inadmissible: ..."] reason on
    the normal rejection path. *)

val generation : t -> int
val active : t -> Suite.t
(** The committed generation's suite. *)

val applied_ids : t -> int list
(** Ids of applied updates, oldest first (the exactly-once oracle reads
    this). *)

val already_applied : t -> int -> bool
val pending_id : t -> int option
(** The staged-but-uncommitted update, if any (crash recovery re-applies
    it before new deliveries are staged). *)

val stage : ?probe:(string -> unit) -> t -> update -> int
(** Write the update's wire image into the staging buffer and arm the
    pending marker.  Returns the staged byte count.  Restaging over an
    unapplied pending update overwrites it (last-writer-wins, as for an
    OTA image). *)

val apply :
  ?probe:(string -> unit) -> ?commit_extra:(applied -> unit) -> t -> outcome
(** Run validate/build/migrate/flip on the pending update, if any.
    [commit_extra] runs inside the flip transaction (use
    {!Nvm.tx_write}) so caller bookkeeping commits atomically with the
    generation flip.  Safe to call again after a power failure at any
    point: every partial state either retries to the same outcome or was
    already committed (in which case the pending marker is gone and the
    call returns [Idle]). *)

(** {1 Introspection (oracles, experiments)} *)

type built = {
  suite : Suite.t;
  replaced : (Monitor.t * Monitor.t) list;
  added : string list;
  removed : string list;
}

val deployment : t -> int -> built option
(** The cached deployment of a generation, if built. *)
