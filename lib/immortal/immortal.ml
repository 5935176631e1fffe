open Artemis_nvm
module Obs = Artemis_obs.Obs

let m_steps = Obs.counter "immortal_steps"
let m_resets = Obs.counter "immortal_resets"

type t = { nvm : Nvm.t; pc_cell : int Nvm.cell; steps : (unit -> unit) array }

type progress = Ran of int | Done

let create nvm ~region ~name ~steps =
  if Array.length steps = 0 then invalid_arg "Immortal.create: no steps";
  let pc_cell = Nvm.cell nvm ~region ~name:("ic:" ^ name) ~bytes:2 0 in
  { nvm; pc_cell; steps }

let pc t = Nvm.read t.pc_cell
let steps t = t.steps
let fresh t = pc t = 0
let completed t = pc t >= Array.length t.steps
let in_progress t = (not (fresh t)) && not (completed t)

(* Each step commits its effects and the pc advance in one transaction:
   a power failure at any point inside the step rolls the whole step back
   (the pc still names it), and once the pc has advanced the step's
   writes are durable - a crash can never observe a half-applied step or
   re-execute a completed one.  Step bodies must write through
   [Nvm.write_join] for their updates to join the step transaction. *)
let run_step t =
  let i = pc t in
  if i >= Array.length t.steps then Done
  else begin
    Nvm.begin_tx t.nvm;
    (try
       t.steps.(i) ();
       Nvm.tx_write t.pc_cell (i + 1);
       Nvm.commit_tx t.nvm
     with e ->
       if Nvm.in_tx t.nvm then Nvm.abort_tx t.nvm;
       raise e);
    Obs.incr (Nvm.obs t.nvm) m_steps;
    Ran i
  end

let rec run_to_completion t =
  match run_step t with Done -> () | Ran _ -> run_to_completion t

let reset t =
  Obs.incr (Nvm.obs t.nvm) m_resets;
  Nvm.write t.pc_cell 0
