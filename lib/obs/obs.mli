(** Observability layer: metrics registry and span tracing, per-context.

    ARTEMIS's evaluation is all attribution (Figures 12-16 split wall
    time and energy between the application, the runtime and the
    monitors), so the simulator needs a way to see {e inside} a run, not
    just its end-of-run {!Artemis_trace.Stats} totals.  This module is
    the single hook interface the instrumented libraries ([lib/nvm],
    [lib/device], [lib/runtime], [lib/monitor], [lib/immortal],
    [lib/faultsim]) talk to:

    - a {b metrics registry}: named counters, gauges and histograms with
      fixed microsecond buckets.  Registration allocates once; updates
      mutate a preallocated slot, so the hot path allocates nothing.
    - a {b span tracer} that collects Chrome trace-event records
      (loadable in Perfetto / [chrome://tracing]): B/E span pairs for
      task attempts, monitor calls, NVM transactions, charging delays
      and faultsim campaign runs, plus instant events for verdicts,
      corrective actions and brown-outs.

    Both halves are {b off by default} and guarded by a single boolean
    check, so the monitor fast path keeps its numbers when
    observability is disabled (the bench tracks this contract).

    The layer is split in two:

    - metric {e handles} ({!counter}, {!gauge}, {!histogram}) intern
      names into a process-global, mutex-protected registry - they are
      registered once at module-initialisation time and are safe to
      share across domains;
    - metric {e values}, trace events and the simulated clock live in a
      context {!t}, which every recording function takes explicitly.  A
      context is single-owner - it must never be mutated by two domains
      concurrently - and {!par_map}, the fan-out of the campaign and
      fleet runners, gives every item its own context, merging them
      deterministically with {!absorb}.

    Each domain has a {e current} context ({!current}, {!with_ctx}).
    A device or NVM store takes no context argument: it records into the
    context that was current when it was created.  Every domain starts
    with a private quiet context.

    Timestamps come from the {e simulated} clock - the owning device
    installs it with {!set_clock} - so exported traces are in simulated
    microseconds, which is exactly the unit the Chrome trace-event [ts]
    field wants. *)

(** {1 Metric handles (process-global, domain-safe)} *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Register (or look up) a counter.  Idempotent by name. *)

val gauge : string -> gauge

val histogram : string -> histogram
(** Fixed upper-bound buckets in microseconds: powers of ten from 1 us
    to 10 s, then 60 s, plus an overflow bucket. *)

(** {1 Trace argument values} *)

type arg = S of string | I of int | F of float

(** {1 Contexts} *)

type t
(** One recording surface: metric values, trace buffer, simulated clock
    and timeline base.  Single-owner: a context may be handed from one
    domain to another, but must never be mutated concurrently. *)

val create : unit -> t
(** A fresh quiet context (clock [fun () -> 0], zero metrics, empty
    trace). *)

val current : unit -> t
(** This domain's current context.  Every domain starts with a private
    quiet one, so cross-domain recording never aliases by accident. *)

val with_ctx : t -> (unit -> 'a) -> 'a
(** Run a thunk with a context installed as this domain's current one,
    restoring the previous one afterwards (exception-safe). *)

val par_map : jobs:int -> int -> (int -> 'a) -> 'a array
(** [par_map ~jobs n f] is {!Artemis_util.Par.map}[ ~jobs n f] made safe
    for code that records.  When the calling domain's current context
    records metrics or tracing, item [i] runs under {!with_ctx} in a
    fresh context ({!create}) with the caller's metrics and tracing
    switches, and the item contexts are absorbed into the caller's
    context in index order, so the merged metrics and trace are
    byte-identical for every [jobs].  Otherwise it is plain
    [Par.map]: items run in their worker domain's quiet context. *)

(** {1 Switches and simulated clock} *)

val set_metrics : t -> bool -> unit
val metrics_enabled : t -> bool
val set_tracing : t -> bool -> unit
val tracing_enabled : t -> bool

val set_clock : t -> (unit -> int) -> unit
(** Install the current-simulated-time supplier (microseconds).  Called
    by [Device.create] on the device's context; the last created device
    on a context wins, which is correct for the sequential simulator. *)

val set_base : t -> int -> unit
(** Offset added to every timestamp.  The fault-injection engine bumps
    it between campaign runs so each run (whose device clock restarts at
    zero) lands on its own stretch of the exported timeline. *)

val now_us : t -> int
(** Base plus the installed clock. *)

(** {1 Metrics} *)

val incr : t -> counter -> unit
val add : t -> counter -> int -> unit
val counter_value : t -> counter -> int
val set_gauge : t -> gauge -> float -> unit
val gauge_value : t -> gauge -> float
val observe_us : t -> histogram -> int -> unit

(** {1 Tracing} *)

val span :
  t ->
  cat:string ->
  ?args:(string * arg) list ->
  begin_us:int ->
  end_us:int ->
  string ->
  unit
(** Emit one balanced B/E pair on the category's track.  Both events are
    appended together, so a crash-interrupted caller that reaches its
    exit path (or exception handler) can never leave a dangling B. *)

val instant :
  t -> cat:string -> ?args:(string * arg) list -> ?ts:int -> string -> unit
(** Instant event ([ph:"i"]); [ts] defaults to {!now_us}. *)

val event_count : t -> int

(** {1 Merging and export} *)

val absorb : into:t -> t -> unit
(** [absorb ~into src] appends [src]'s whole record onto [into],
    exactly as if [src]'s activity had happened sequentially on
    [into]: counters and histograms sum, gauges follow last-writer
    (a gauge never written in [src] keeps [into]'s value), trace
    events shift by [into]'s current timeline base and re-intern
    their category tracks in emission order, and [into]'s base
    advances by [src]'s final base.  Absorbing per-run contexts in
    run order therefore reproduces the sequential timeline
    byte-for-byte.  [src] is not modified. *)

val metrics_dump : t -> string
(** Human-readable text dump: one sorted [kind name value] line per
    metric (histograms render their bucket counts inline). *)

val metrics_json : t -> string
(** The registry as a JSON object with [counters], [gauges] and
    [histograms] members; floats rendered via {!Artemis_util.Json} so
    the document stays valid for degenerate values. *)

val trace_json : t -> string
(** The collected events as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}]) with thread-name metadata so Perfetto
    labels each category's track. *)
