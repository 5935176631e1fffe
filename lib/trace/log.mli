(** Append-only execution trace. *)

open Artemis_util

type t

val create : unit -> t
val record : t -> at:Time.t -> Event.t -> unit
val events : t -> Event.timed list
(** In recording order. *)

val length : t -> int

val count : t -> (Event.t -> bool) -> int
val find_all : t -> (Event.t -> bool) -> Event.timed list

val task_attempts : t -> task:string -> int
(** Number of [Task_started] events for [task] over the whole trace. *)

val render_timeline : ?limit:int -> t -> string
(** Figure 13-style textual timeline, one {!Event.render_timed} line per
    event, all appended into one buffer; [limit] keeps the first N lines
    and replaces the rest with ["... (K more events)"].
    @raise Invalid_argument if [limit] is negative. *)
