(** Static WAR-hazard analysis over per-task NVM access sets (PR 7).

    Surbatovich et al.'s formal treatment of intermittent execution
    shows that a task which {e reads} a non-volatile cell and later
    {e writes it outside the protecting transaction} is non-idempotent:
    a power failure after the write but before task commit leaves the
    write durable, and the re-executed task reads the already-updated
    value - observable state diverges from any continuous execution.

    This pass needs no source access: it installs the
    {!Artemis_nvm.Nvm.set_recorder} access recorder, runs each task
    body {e once} inside an open transaction (so [write_join] resolves
    exactly as it does under the runtime), and flags every FRAM cell
    with a read at some program point followed by a direct persistent
    write ([Nvm.write], not the buffered [Nvm.tx_write]) at a later
    point of the same body.  Transactionally buffered writes are safe
    (discarded by a crash); volatile cells are safe (reset at reboot).

    The recording run's transaction is aborted afterwards, but direct
    writes performed by the bodies do land in committed state: analyze
    against a scenario built fresh for the purpose (the [artemisc
    --check] driver and the campaign tests do exactly that), not
    against a store whose state you still need. *)

open Artemis_nvm
open Artemis_task

type hazard = {
  haz_task : string;  (** task / step / segment that exhibits the hazard *)
  haz_cell : string;
  haz_region : Nvm.region;
}

type report = {
  analyzed : string list;  (** task names, in analysis order *)
  hazards : hazard list;  (** stable order: task order, then first write *)
}

val has_hazards : report -> bool

val merge : report list -> report
(** Concatenate in order (multi-surface scenarios: app + monitor thread). *)

val analyze_bodies :
  Nvm.t -> ?seed:int -> (string * (Task.context -> unit)) list -> report
(** Record each named body once against [nvm].  A fresh transaction is
    opened around every body and aborted after it; the body receives a
    {!Task.context} whose PRNG is seeded with [seed] (default 42) so
    synthetic sensors read deterministically.  A body that raises stops
    recording at the raise point (its accesses so far still count). *)

val analyze_app : Nvm.t -> ?seed:int -> Task.app -> report
(** {!analyze_bodies} over {!Task.bodies}: the ARTEMIS-runtime, Mayfly
    and (via [Ink.bodies]) InK task surfaces. *)

val analyze_steps :
  Nvm.t -> ?seed:int -> name:string -> (unit -> unit) array -> report
(** Immortal-thread surface: each step runs inside its own transaction
    (named ["<name>#<i>"]), matching {!Artemis_immortal.Immortal}'s
    one-transaction-per-step execution. *)

val report_to_string : report -> string
