(** Alpaca-style checkpoint-free backend (PR 10).

    Alpaca (Maeng, Colin & Lucia; arXiv 1909.06951) achieves
    intermittence without checkpoints: each task {e privatizes} the
    non-volatile cells it writes into scratch buffers and, on task
    completion, commits them with a two-phase protocol - first a
    durable {b log} of the write set (the commit point, one cell
    write), then a {b swap} that publishes the logged values onto
    committed state.  A power failure

    - {e before the log seals} discards the scratch buffers wholesale:
      the task re-executes from clean pre-state, paying no checkpoint
      or restore cost;
    - {e after the log seals} re-enters recovery on every reboot, which
      idempotently re-applies the redo log until the swap completes -
      the task is never re-executed.

    In this simulation the privatization buffers are the NVM
    transaction's pending views ({!Artemis_nvm.Nvm.capture_tx} freezes
    them into redo thunks, {!Artemis_nvm.Nvm.drop_tx} retires them once
    the log is sealed).  The protocol fires four injection sites
    ({!Artemis_nvm.Site.alpaca_log_before} and [_after],
    {!Artemis_nvm.Site.alpaca_swap_before} and [_after]), its
    [injection_sites], so the fault-injection campaign can crash inside
    both phases. *)

module Backend = Artemis_backend.Backend

val backend : Backend.b
(** The registered backend ([name = "alpaca"]).  Its [setup] allocates
    the 16-byte [alpaca.log] cell (Runtime region); [recover] finishes a
    sealed commit and [execute] runs one privatized attempt.  The log
    costs 60 + 40 cycles per logged cell and the swap 40 + 30 cycles
    per published cell, priced by the run's cost model. *)

(** Test-only chaos hook for the oracle-sensitivity (mutation) suite. *)
module Chaos : sig
  val torn_commit_log : bool ref
  (** The {e recovery} swap loses the youngest Application-region entry
      of the redo log - a broken (non-atomic) swap.  Clean runs are
      unaffected; any injected crash inside the sealed window recovers
      to a torn application state, which the task-atomicity oracle must
      report. *)

  val reset : unit -> unit
end
