open Artemis_util
module Event = Artemis_trace.Event

module Chaos = struct
  let skip_freshness_stamp = ref false
  let clock_skip_on_recovery = ref false

  let reset () =
    skip_freshness_stamp := false;
    clock_skip_on_recovery := false
end

type violation = {
  v_consumer : string;
  v_source : string;
  v_age_us : int option;
  v_at_us : int;
}

(* A stamp taken inside an open transaction is provisional: it records
   the store's revert count so that any abort or power failure between
   the stamp and its commit point kills it (see seal/valid below). *)
type stamp = { s_at : int; s_provisional : bool; s_reverts : int }

type t = {
  clock : unit -> int;
  in_tx : unit -> bool;
  revert_count : unit -> int;
  budget_us : int;
  reads : (string * string list) list;
  sources : string list;  (* every task some consumer reads *)
  stamps : (string, stamp) Hashtbl.t;
  pending : (string, int) Hashtbl.t;
      (* producer start times: a crash can land between the producer's
         durable commit and its [Task_completed] record, losing the
         completion event while the data itself persisted.  Path order
         guarantees a consumer only runs after its producer committed
         (a reverted producer is re-executed, emitting a fresh
         [Task_started], before control moves on), so a consumer check
         that finds only a pending entry promotes it - conservatively
         timestamped at the producer's *start*. *)
  mutable skew_us : int;  (* chaos: recovery clock skip *)
  mutable violations : violation list;  (* newest first *)
}

let create ~clock ?(in_tx = fun () -> false) ?(revert_count = fun () -> 0)
    ~budget ~reads () =
  if Time.is_negative budget then
    invalid_arg "Freshness.create: negative budget";
  {
    clock;
    in_tx;
    revert_count;
    budget_us = Time.to_us budget;
    reads;
    sources = List.concat_map snd reads;
    stamps = Hashtbl.create 8;
    pending = Hashtbl.create 8;
    skew_us = 0;
    violations = [];
  }

let now t = t.clock () + t.skew_us

(* Task events outnumber producer events, so membership is a scan of a
   short list by [String.equal], not a polymorphic hash. *)
let rec mem_string s = function
  | [] -> false
  | x :: rest -> String.equal x s || mem_string s rest

let is_source t task = mem_string task t.sources

let stamp t ~source =
  if (not !Chaos.skip_freshness_stamp) && is_source t source then
    Hashtbl.replace t.stamps source
      {
        s_at = now t;
        s_provisional = t.in_tx ();
        s_reverts = t.revert_count ();
      }

(* Producer [Task_started]: remember the start time so the stamp is not
   lost if a crash eats the completion event after the commit. *)
let note_started t ~source =
  if (not !Chaos.skip_freshness_stamp) && is_source t source then
    Hashtbl.replace t.pending source (now t)

(* Promote a pending start-time entry to a durable stamp (see the
   [pending] field comment for why this is sound). *)
let promote_pending t ~source =
  match Hashtbl.find_opt t.pending source with
  | None -> None
  | Some at ->
      let s = { s_at = at; s_provisional = false; s_reverts = 0 } in
      Hashtbl.replace t.stamps source s;
      Hashtbl.remove t.pending source;
      Some s

(* A provisional stamp survives to durability only if no revert happened
   since it was taken; both abort_tx and power_failure bump the revert
   count, so a reverted transaction cannot launder the timestamp. *)
let seal t ~source =
  match Hashtbl.find_opt t.stamps source with
  | Some s when s.s_provisional ->
      if t.revert_count () = s.s_reverts then
        Hashtbl.replace t.stamps source { s with s_provisional = false }
      else Hashtbl.remove t.stamps source
  | Some _ | None -> ()

let valid t (s : stamp) =
  (not s.s_provisional) || t.revert_count () = s.s_reverts

(* [List.assoc_opt] would compare polymorphically on every task event;
   a consumer that reads nothing and one not listed behave the same. *)
let rec sources_read consumer = function
  | [] -> []
  | (c, srcs) :: rest ->
      if String.equal c consumer then srcs else sources_read consumer rest

let check t ~consumer =
  match sources_read consumer t.reads with
  | [] -> ()
  | srcs ->
      let at = now t in
      List.iter
        (fun source ->
          let stamped =
            match Hashtbl.find_opt t.stamps source with
            | Some s when valid t s -> Some s
            | Some _ | None -> promote_pending t ~source
          in
          match stamped with
          | Some s ->
              let age = at - s.s_at in
              if age > t.budget_us then
                t.violations <-
                  { v_consumer = consumer; v_source = source;
                    v_age_us = Some age; v_at_us = at }
                  :: t.violations
          | None ->
              t.violations <-
                { v_consumer = consumer; v_source = source; v_age_us = None;
                  v_at_us = at }
                :: t.violations)
        srcs

let on_event t = function
  | Event.Task_started { task; _ } ->
      check t ~consumer:task;
      note_started t ~source:task
  | Event.Task_completed { task } ->
      check t ~consumer:task;
      (* only sources are ever stamped or pending *)
      if is_source t task then begin
        stamp t ~source:task;
        seal t ~source:task;
        Hashtbl.remove t.pending task
      end
  | Event.Reboot _ ->
      if !Chaos.clock_skip_on_recovery then
        t.skew_us <- t.skew_us + 3_600_000_000
  | _ -> ()

let violations t = List.rev t.violations
let budget t = Time.of_us t.budget_us

let violation_to_string budget v =
  match v.v_age_us with
  | None ->
      Printf.sprintf "%s consumed unstamped input from %s at %dus" v.v_consumer
        v.v_source v.v_at_us
  | Some age ->
      Printf.sprintf "%s consumed %s data aged %dus (budget %dus) at %dus"
        v.v_consumer v.v_source age (Time.to_us budget) v.v_at_us
