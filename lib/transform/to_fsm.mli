(** Model-to-model transformation: property specification -> intermediate
    language (one state machine per property, the shapes of Figure 7).

    Semantics notes (see DESIGN.md "deliberate semantic decisions"):

    - {b maxTries n}: the counter follows Figure 7 exactly - the action
      fires on the (n+1)-th consecutive start event (n attempts are
      allowed to run).
    - {b maxDuration}: repeated start events of the same task instance
      (power-failure re-executions) are absorbed by the implicit
      self-transition, so the monitor retains the first attempt's
      timestamp (Section 4.1.3).
    - {b collect n}: by default the counter is [persistent] and
      accumulates across path restarts, consuming [n] on success; with
      [collect_reset_on_fail = true] the literal Figure 7 machine is
      produced (counter zeroed on failure).
    - {b MITD/period with maxAttempt m}: the first [m-1] violations raise
      the primary action, the m-th raises the exhausted action and resets
      the (persistent) attempt counter.
    - A property with a [Path] clause gets a [path == p] conjunct on the
      transitions triggered by its own task's events. *)

type options = { collect_reset_on_fail : bool }

val property :
  ?options:options ->
  task:string ->
  name:string ->
  Artemis_spec.Ast.property ->
  Artemis_fsm.Ast.machine
(** Compile one property of [task] into a machine called [name]. *)

val spec :
  ?options:options -> Artemis_spec.Ast.t -> Artemis_fsm.Ast.machine list
(** Compile a whole specification; machine names are derived from the
    task, property kind and dependency, made unique with a numeric
    suffix on clashes.  Every produced machine satisfies
    {!Artemis_fsm.Typecheck.check} (tested). *)
