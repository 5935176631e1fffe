(** Table-driven monitor engine: machines lowered to flat integer arrays.

    The deployed engine ({!Interp} is the reference semantics it is
    checked against).  Lowering a typechecked machine produces dense
    integer tables:

    - states, variables and watched tasks are interned to dense ids;
    - trigger dispatch is one dense [(state, kind, task) -> candidates]
      row lookup (rows are offsets into a CSR-style candidate array);
    - guards and statement bodies are compiled to a small postfix
      bytecode executed over an int and a float operand stack, with all
      literals, [data(_)] keys and precomputed failure records held in
      constant pools.

    Because the typechecker has already assigned every expression a
    static type, the bytecode is monomorphic: int, bool and time values
    travel the int stack ([time] is its microsecond count, [bool] is
    0/1), floats travel the float stack, and no tagging or boxing
    happens at run time.  A steady-state step - dispatch, guard
    evaluation, body execution, state update - allocates nothing
    (enforced by a [Gc.minor_words] test) and touches only the
    machine's contiguous register block.  The same tables are what the
    energy-admissibility analysis bounds ({!step_costs}), so the engine
    that runs is the engine that is analysed.

    {!Interp} remains the reference semantics: for every machine, store
    and event trace, {!step} is observationally equivalent to
    {!Interp.step} - same states, same variable values, same failures,
    same dynamic errors with identical messages - enforced by the
    differential fuzz tests. *)

type t
(** A lowered machine: immutable tables shared by all its instances.
    Nothing writes to a [t] after {!compile} - {!step} keeps its
    dispatch memo in the {!inst} - so one [t] may serve any number of
    instances on any number of domains at once. *)

val compile : Ast.machine -> t
(** Typecheck and lower.  @raise Failure if the machine is ill-typed
    (same behaviour as {!Typecheck.check_exn}). *)

val machine : t -> Ast.machine
val name : t -> string

(** {2 Interning tables} *)

val state_count : t -> int
val state_name : t -> int -> string

val state_id : t -> string -> int
(** @raise Not_found for an unknown state name. *)

val initial_state : t -> int
val var_count : t -> int
val var_name : t -> int -> string

val var_id : t -> string -> int
(** @raise Not_found for an unknown variable name.  Slots are variable
    declaration order, so a deployed monitor's FRAM cell layout does not
    depend on its engine. *)

val var_decls : t -> Ast.var_decl array

(** {2 Flat-buffer footprint}

    Everything the engine touches per step, in machine words.  This is
    what [artemisc --engine table] reports per property and what an
    NVM-resident deployment of the tables would occupy. *)

val dispatch_words : t -> int
(** Dense dispatch rows + CSR candidate segments + per-transition
    (guard pc, body pc, target) metadata. *)

val code_words : t -> int
(** Bytecode words + float constant pool entries. *)

val buffer_words : t -> int
(** [dispatch_words + code_words]. *)

val int_regs : t -> int
(** Mutable int-class registers (control state + int/bool/time vars). *)

val float_regs : t -> int

(** {2 Instances}

    An instance is a machine's mutable run state: an array of int
    registers (register 0 is the control state) and an array of float
    registers, plus reusable operand-stack scratch and the per-instance
    dispatch memo (the last few task strings and their dispatch
    columns).  An instance belongs to one domain at a time. *)

type inst

val instance :
  ?var_sink:(int -> unit) -> ?state_sink:(int -> unit) -> t -> inst
(** Fresh instance with registers set from the declarations.
    [var_sink slot] is called immediately after each variable
    assignment commits to the register file, [state_sink id] after a
    fired transition updates the control state - the NVM-backed monitor
    uses them to write the same FRAM cells the interpreter writes, in
    the same order.  Both default to no-ops (the memory-backed form). *)

val step : t -> inst -> Interp.event -> Interp.failure list
(** Process one event; the first trigger-and-guard-matching transition
    of the current state fires, in declaration order, exactly as
    {!Interp.step}.  Returns [[]] (no allocation) on the steady-state
    path.  @raise Interp.Runtime_error on the same dynamic errors as
    the interpreter (missing [data(x)] payload, division by zero), with
    identical messages. *)

val current_state : inst -> int
val set_state : inst -> int -> unit

val read_var : t -> inst -> int -> Ast.value
(** Box the register holding slot [i] back into an {!Ast.value}. *)

val load_var : t -> inst -> int -> Ast.value -> unit
(** Poke a value into slot [i]'s register without invoking the sink
    (used to refresh registers from the durable FRAM copy). *)

(** {2 Static trigger information} *)

val watched_tasks : t -> string list
val mentions_task : t -> string -> bool

(** {2 Static worst-case step costs}

    Per-(state, event-kind) worst-case work of one {!step}, measured in
    executed bytecode ops and FRAM writes - the structural inputs of the
    energy-admissibility analysis.  Sound because the statement language
    has no loops: every jump is forward, so a linear opcode scan to the
    program's HALT bounds any dynamic execution.  Quick-form (quickened)
    guards and bodies are charged their equivalent op counts. *)

type step_cost = {
  cost_state : string;
  cost_start : bool;  (** true for a start event, false for an end event *)
  cost_guard_ops : int;
      (** every candidate guard of the worst dispatch column evaluates *)
  cost_body_ops : int;  (** worst single fired body *)
  cost_nvm_writes : int;
      (** fired body's var stores + the control-state write *)
}

val step_costs : t -> step_cost list
(** One entry per (state, kind) from which at least one transition can
    fire; a step from any other configuration does dispatch work only.
    Each field is maximised independently over the dispatch columns, so
    combining them stays an upper bound for every concrete event. *)
