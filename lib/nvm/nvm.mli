(** Simulated non-volatile memory (FRAM) with task-transaction semantics.

    The MSP430FR-class targets of the paper mix a small volatile SRAM with a
    large non-volatile FRAM.  This module reproduces the two memory
    behaviours the ARTEMIS semantics depend on:

    - {b write-through persistence} for monitor state ("immortal" variables,
      Section 4.2.3): a {!write} survives any later power failure;
    - {b transactional task regions} (Section 3.1): writes a task performs
      via {!tx_write} are buffered and either committed atomically at task
      end or discarded by a power failure, giving tasks all-or-nothing
      semantics.

    Every cell declares its byte size and owning region so that the Table 2
    memory accounting can be computed from the live store.  Bookkeeping is
    O(1) per operation: duplicate detection and footprint accounting use a
    [(region, name)] index maintained at allocation, and transaction
    rollback touches only cells with pending writes (power failures
    additionally reset the volatile cells, tracked separately).  The
    store lists its cells of every value type as packed cells, so a first
    {!tx_write} to a cell allocates one list cell and no closures. *)

type t
(** A simulated memory store (one per device). *)

type region =
  | Runtime      (** cells owned by the intermittent runtime *)
  | Monitor      (** cells owned by generated monitors *)
  | Application  (** cells owned by application tasks (channels, outputs) *)
  | Staging      (** cells owned by the live-adaptation protocol: property
                     updates received over the radio are staged here before
                     the generation flip makes them active (PR 4) *)

type kind =
  | Fram  (** non-volatile: survives power failures *)
  | Ram   (** volatile: reset to its initial value on power failure *)

type 'a cell

exception Injected_failure of string
(** Raised by a fault-injection probe (see {!set_probe}) to model a power
    failure at the instrumented point whose label it carries.  The
    intermittent runtime catches it, runs the device's power-failure
    recovery, and resumes from persistent state. *)

val injection_sites : string list
(** The labels this module's probe can fire, in the canonical numbering
    order used by the fault-injection engine: before/after each {!write},
    {!tx_write} and {!commit_tx}. *)

val create : ?obs:Artemis_obs.Obs.ctx -> unit -> t
(** [obs] is the observability context this store records into; defaults
    to the calling domain's current context ([Obs.current ()]). *)

val obs : t -> Artemis_obs.Obs.ctx
(** The recording surface shared by the store's owning device; the
    instrumented libraries ([lib/monitor], [lib/immortal], [lib/adapt])
    fetch it from here so one device's activity lands in one context. *)

val set_probe : t -> (string -> unit) option -> unit
(** Install (or clear) the fault-injection probe.  The probe is invoked
    with the site label around every state-changing operation and may
    raise {!Injected_failure} to crash the store's owner at that point.
    Recovery paths ({!power_failure}, {!abort_tx}) and reads never fire
    the probe. *)

type access_op =
  | Read_op
  | Write_op     (** direct persistent write ({!write}) *)
  | Tx_write_op  (** transactionally buffered write ({!tx_write}) *)

type access = {
  acc_name : string;
  acc_region : region;
  acc_kind : kind;
  acc_op : access_op;
  acc_in_tx : bool;  (** a task transaction was open at the access *)
}
(** One cell access, as seen by a recording pass (PR 7). *)

val set_recorder : t -> (access -> unit) option -> unit
(** Install (or clear) the access recorder.  While installed, every
    {!read}, {!write} and {!tx_write} reports its cell and operation;
    the static WAR-hazard analysis ({!Artemis_consistency.War}) uses
    this to collect per-task access sets by running each task body once.
    The hot paths pay a single branch when no recorder is installed. *)

val cell :
  t -> region:region -> ?kind:kind -> name:string -> bytes:int -> 'a -> 'a cell
(** [cell t ~region ~name ~bytes init] allocates a cell holding [init].
    [kind] defaults to [Fram].  [bytes] is the declared footprint used for
    accounting only (the OCaml value itself is stored boxed).
    @raise Invalid_argument if [bytes < 0] or a cell named [name] already
    exists in [region]. *)

val read : 'a cell -> 'a
(** Current visible value: the pending transactional value if one exists
    (read-your-own-writes inside a task), else the committed value. *)

val write : 'a cell -> 'a -> unit
(** Direct persistent write, visible and durable immediately.  This is the
    write used by monitors and the runtime bookkeeping.
    @raise Invalid_argument on a [Fram] cell with an uncommitted
    transactional value (mixing the two disciplines on one cell within a
    task would make rollback ill-defined). *)

val write_join : 'a cell -> 'a -> unit
(** [write] when no transaction is open on the cell's store; [tx_write]
    when one is (volatile cells always write through).  Lets multi-cell
    updates (a monitor step, a path restart) become atomic when an
    enclosing transaction wraps them, without changing their stand-alone
    write-through semantics. *)

val begin_tx : t -> unit
(** Open a task transaction. @raise Invalid_argument if one is open. *)

val tx_write : 'a cell -> 'a -> unit
(** Buffered write, committed by {!commit_tx} and discarded by
    {!abort_tx}/{!power_failure}.
    @raise Invalid_argument if no transaction is open, or on a [Ram]
    cell (volatile cells are not transactional). *)

val commit_tx : t -> unit
(** Atomically apply all buffered writes.
    @raise Invalid_argument if no transaction is open. *)

val abort_tx : t -> unit
(** Discard all buffered writes.
    @raise Invalid_argument if no transaction is open. *)

val capture_tx : t -> (string * region * (unit -> unit)) list
(** Freeze the open transaction's write set into a redo log: one
    [(name, region, apply)] entry per dirty cell, in first-write order,
    where [apply] publishes the value the cell's pending view held at
    capture time.  The thunks are self-contained - they keep working
    after the transaction is dropped or rolled back by a power failure,
    and re-applying them is idempotent.  This is the logging half of an
    Alpaca-style two-phase (log-then-swap) commit (PR 10).
    @raise Invalid_argument if no transaction is open. *)

val drop_tx : t -> unit
(** Close the open transaction {e without} publishing or reverting: the
    pending views are discarded because a {!capture_tx} redo log is now
    the authoritative carrier of the write set.  Counts as a logical
    commit in the metrics, not as a revert ({!revert_count} is
    untouched - nothing observable was rolled back).
    @raise Invalid_argument if no transaction is open. *)

val in_tx : t -> bool

val power_failure : t -> unit
(** Model a power failure: abort any open transaction and reset every
    [Ram] cell to its initial value.  [Fram] committed values persist. *)

val revert_count : t -> int
(** Number of state-revert events (transaction aborts, power failures)
    since the store was created.  Monotone: {b both} {!abort_tx} and
    {!power_failure} bump it (a power failure with an open transaction
    bumps twice; consumers must compare for inequality, never count).
    Two consumers rely on this:
    - register-caching engines (the table monitor backend) skip
      re-reading their cells on the steady-state path: registers can
      only have diverged after a revert or an out-of-band cell write,
      and the writers of the latter invalidate explicitly;
    - the freshness tracker ({!Artemis_consistency.Freshness}) snapshots
      it when a timestamp is taken inside an open transaction, so a
      stamp whose enclosing transaction was reverted - by an explicit
      abort as much as by a power failure - can never launder a stale
      input as fresh. *)

val footprint : t -> kind:kind -> region:region -> int
(** Total declared bytes of the cells of that kind and region. *)

val cell_names : t -> region:region -> string list
(** Names of the region's allocated cells, in allocation order
    (diagnostics).  Walks that region's cells only. *)

val snapshot_region : t -> region:region -> (string * string) list
(** [(name, digest)] of every cell's {e committed} value in the region,
    in allocation order.  Pending transactional values are excluded, so
    two snapshots are equal iff the durable states are.  Used by the
    fault-injection oracles (task-transaction atomicity), which take one
    at every commit.

    Snapshots are memoized at two levels.  Each cell carries a write
    version that every assignment to its committed value bumps (a
    {!write}, a commit, a redo thunk from {!capture_tx}, a volatile
    reset), and a cell is re-marshalled only when its version has moved
    since its last digest.  Each region carries a write version too,
    bumped by those same assignments to any of its cells and by every
    {!cell} registered in it: while the region's version stands,
    [snapshot_region] returns the previous list itself (physically
    equal), so a commit that writes only other regions' cells, an
    aborted transaction or a pending {!tx_write} costs no snapshot.

    Precondition: a value stored in a cell is never mutated in place -
    cells are updated by storing a new value - and neither is a
    returned list, which later calls share.  Rollback already relies on
    the first (a task that mutated a value it read would change
    committed state no abort can restore), and every Application cell
    holds an immutable float, int or list. *)

val snapshot_region_logical : t -> region:region -> (string * string) list
(** Like {!snapshot_region}, but digesting each cell's {e visible} value
    (the pending transactional view when one exists).  At an Alpaca
    commit point this is the post-state the sealed redo log promises;
    the task-atomicity oracle compares the eventual committed state
    against it (PR 10).  A cell with no pending value reuses its
    memoized committed digest. *)

(** Test-only chaos hooks for the oracle-sensitivity (mutation) suite:
    each flag re-introduces a known-bad behaviour so the faultsim
    oracles can be shown to fail, not just pass.  All default to
    [false]; production code must never set them. *)
module Chaos : sig
  val no_write_join : bool ref
  (** {!write_join} always writes through, never joining the open
      transaction - monitor updates inside an immortal step stop being
      atomic with the program-counter advance (pre-PR2 bug). *)

  val tx_write_through : bool ref
  (** {!tx_write} publishes immediately instead of buffering - task
      writes stop being all-or-nothing, so a mid-task crash leaves a
      half-executed task visible (defeats task-transaction atomicity). *)

  val hazardous_nontx_write : bool ref
  (** [Channel.push] writes the channel cell directly instead of through
      the task transaction - the classic read-then-write (WAR) hazard:
      a crash after the push but before task commit leaves the pushed
      item durable, and the re-executed task pushes it again.  The
      static WAR pass ({!Artemis_consistency.War}) must flag it; the
      task-atomicity oracle catches it dynamically. *)

  val reset : unit -> unit
  (** Clear every flag. *)
end
