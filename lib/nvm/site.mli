(** The numbered fault-injection sites.

    A site is one crash window of the simulated device: an instant
    immediately before or after a piece of crash-critical bookkeeping in
    the NVM store, the runtime, the live-adaptation protocol or the
    Alpaca two-phase commit.  The code at each window fires its site
    through {!Nvm.fire}; the store's one hook ({!Nvm.set_probe}) sees
    every site by number, and may raise {!Nvm.Injected_failure} to crash
    the device there.

    This module is the one place the numbering is stated.  Numbers are
    dense in [[0, count)], and replay lines, campaign reports and traces
    name sites by them, so they never change: a new site is appended. *)

type t = private int
(** A site's number; [(s :> int)] indexes per-site arrays. *)

val count : int
(** Number of sites (24). *)

val label : t -> string
(** The site's stable label, e.g. ["nvm.commit_tx.after"]: what reports,
    traces and {!Nvm.Injected_failure} print. *)

val of_int : int -> t
(** @raise Invalid_argument outside [[0, count)]. *)

(** {2 NVM store} Around every {!Nvm.write}, {!Nvm.tx_write} and
    {!Nvm.commit_tx}. *)

val nvm_write_before : t
val nvm_write_after : t
val nvm_tx_write_before : t
val nvm_tx_write_after : t
val nvm_commit_tx_before : t
val nvm_commit_tx_after : t

(** {2 Runtime} Around each callMonitor step, the event-cell update and
    verdict application. *)

val rt_monitor_step_before : t
val rt_monitor_step_after : t
val rt_event_update_before : t
val rt_event_update_after : t
val rt_verdict_before : t
val rt_verdict_after : t

(** {2 Live adaptation} The crash windows of the update protocol: stage,
    validate, migrate, flip and clear. *)

val rt_adapt_stage_before : t
val rt_adapt_stage_after : t
val rt_adapt_validate_after : t
val rt_adapt_migrate_before : t
val rt_adapt_migrate_after : t
val rt_adapt_flip_before : t
val rt_adapt_flip_after : t
val rt_adapt_clear_after : t

(** {2 Alpaca} The four windows of the log-then-swap commit. *)

val alpaca_log_before : t
val alpaca_log_after : t
val alpaca_swap_before : t
val alpaca_swap_after : t
