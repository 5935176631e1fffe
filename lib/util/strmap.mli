(** Allocation- and exception-free string -> int lookup.

    Hot paths that turn a name into a dense index use it: the table
    engine's per-event task column (and its state and variable ids), and
    the fault-injection engine's probe-site numbering.  [Hashtbl.find]
    costs a raised [Not_found] on every miss (~4x a hit) and [find_opt]
    boxes an option on every hit; these paths tolerate neither.

    Open addressing over a power-of-two array at most a quarter full,
    empty slots marked by physical equality with {!sentinel}.  A map is
    never mutated after {!build}, so one map can be read from any
    number of domains at once. *)

type t

val build : (string * int) list -> t
(** [build pairs] maps each key to its value.  Keys must be distinct:
    a duplicate is stored twice and {!find} returns the first one. *)

val find : t -> string -> default:int -> int
(** [find m key ~default] is [key]'s value, or [default] when [key] is
    absent.  Keys compare by content ([String.equal]), so a fresh copy
    of a key finds its value.  Never allocates or raises. *)

val hash : string -> int
(** The probe hash: the length and the last character only, not the
    whole string.  Keys that share both collide and cost extra
    [String.equal] probes, never a wrong answer.  Exposed so callers can
    index a direct-mapped memo in front of {!find} with it. *)

val sentinel : string
(** An empty string physically distinct from every other string, so it
    marks an empty slot under [==], in a map and in a caller's memo. *)
