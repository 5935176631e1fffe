type t = int

(* The numbering is the order of the definitions below: [site] hands out
   the next number and records its label.  Replay lines and reports name
   sites by number, so a new site is appended, never inserted.  Runs at
   module initialisation only; [labels] is read-only afterwards. *)
let defined = ref []

let site label =
  let id = List.length !defined in
  defined := label :: !defined;
  id

let nvm_write_before = site "nvm.write.before"
let nvm_write_after = site "nvm.write.after"
let nvm_tx_write_before = site "nvm.tx_write.before"
let nvm_tx_write_after = site "nvm.tx_write.after"
let nvm_commit_tx_before = site "nvm.commit_tx.before"
let nvm_commit_tx_after = site "nvm.commit_tx.after"
let rt_monitor_step_before = site "rt.monitor_step.before"
let rt_monitor_step_after = site "rt.monitor_step.after"
let rt_event_update_before = site "rt.event_update.before"
let rt_event_update_after = site "rt.event_update.after"
let rt_verdict_before = site "rt.verdict.before"
let rt_verdict_after = site "rt.verdict.after"
let rt_adapt_stage_before = site "rt.adapt.stage.before"
let rt_adapt_stage_after = site "rt.adapt.stage.after"
let rt_adapt_validate_after = site "rt.adapt.validate.after"
let rt_adapt_migrate_before = site "rt.adapt.migrate.before"
let rt_adapt_migrate_after = site "rt.adapt.migrate.after"
let rt_adapt_flip_before = site "rt.adapt.flip.before"
let rt_adapt_flip_after = site "rt.adapt.flip.after"
let rt_adapt_clear_after = site "rt.adapt.clear.after"
let alpaca_log_before = site "alpaca.log.before"
let alpaca_log_after = site "alpaca.log.after"
let alpaca_swap_before = site "alpaca.swap.before"
let alpaca_swap_after = site "alpaca.swap.after"

let labels = Array.of_list (List.rev !defined)
let count = Array.length labels
let label s = labels.(s)

let of_int i =
  if i < 0 || i >= count then
    invalid_arg (Printf.sprintf "Site.of_int: %d outside [0,%d]" i (count - 1));
  i
