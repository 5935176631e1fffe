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

    Since PR 5 the layer is split in two:

    - metric {e handles} ({!counter}, {!gauge}, {!histogram}) intern
      names into a process-global, mutex-protected registry - they are
      registered once at module-initialisation time and are safe to
      share across domains;
    - metric {e values}, trace events and the simulated clock live in a
      {!ctx}.  A context is single-owner - it must never be mutated by
      two domains concurrently - and the domain-parallel campaign runner
      gives every worker run its own context, merging them
      deterministically with {!Ctx.absorb}.

    The historic process-global API is kept as a thin wrapper over the
    domain-local {e current} context ({!current}/{!set_current}/
    {!with_ctx}): the initial domain owns {!default}, every freshly
    spawned domain gets a private quiet context, and all existing call
    sites behave exactly as before on a single domain.

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

val histogram : ?buckets_us:int array -> string -> histogram
(** Fixed upper-bound buckets in microseconds (default powers of ten
    from 1 us to 60 s, plus an implicit overflow bucket). *)

(** {1 Trace argument values} *)

type arg = S of string | I of int | F of float

(** {1 Contexts} *)

type ctx
(** One recording surface: metric values, trace buffer, simulated clock
    and timeline base.  Single-owner: a context may be handed from one
    domain to another, but must never be mutated concurrently. *)

module Ctx : sig
  type t = ctx

  val create : ?like:t -> unit -> t
  (** A fresh quiet context (clock [fun () -> 0], zero metrics, empty
      trace).  [?like] copies the metrics/tracing on-off switches, which
      is how per-run worker contexts inherit the campaign's settings. *)

  val set_metrics : t -> bool -> unit
  val metrics_enabled : t -> bool
  val set_tracing : t -> bool -> unit
  val tracing_enabled : t -> bool
  val set_clock : t -> (unit -> int) -> unit
  val set_base : t -> int -> unit
  val base : t -> int
  val now_us : t -> int

  val incr : t -> counter -> unit
  val add : t -> counter -> int -> unit
  val counter_value : t -> counter -> int
  val set_gauge : t -> gauge -> float -> unit
  val gauge_value : t -> gauge -> float
  val observe_us : t -> histogram -> int -> unit

  val span :
    t ->
    cat:string ->
    ?args:(string * arg) list ->
    begin_us:int ->
    end_us:int ->
    string ->
    unit

  val instant :
    t -> cat:string -> ?args:(string * arg) list -> ?ts:int -> string -> unit

  val event_count : t -> int

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
  val metrics_json : t -> string
  val trace_json : t -> string
  val reset : t -> unit
end

val default : ctx
(** The context the initial domain starts with; the process-global
    surface of PRs 1-4. *)

val current : unit -> ctx
(** This domain's current context.  Spawned domains start with a private
    quiet context, so cross-domain recording never aliases by accident. *)

val set_current : ctx -> unit

val with_ctx : ctx -> (unit -> 'a) -> 'a
(** Run a thunk with [ctx] installed as this domain's current context,
    restoring the previous one afterwards (exception-safe). *)

(** {1 Process-global compatibility API}

    Every function below acts on {!current}[ ()].  On the initial domain
    with no [with_ctx] in scope this is {!default}, i.e. the exact
    pre-PR5 behaviour. *)

(** {2 Switches} *)

val set_metrics : bool -> unit
val metrics_enabled : unit -> bool
val set_tracing : bool -> unit
val tracing_enabled : unit -> bool

val reset : unit -> unit
(** Zero every registered metric, drop all collected trace events and
    reset the timeline base.  Registrations survive (they are
    module-level in the instrumented libraries). *)

(** {2 Simulated clock} *)

val set_clock : (unit -> int) -> unit
(** Install the current-simulated-time supplier (microseconds).  Called
    by [Device.create] on the device's context; the last created device
    on a context wins, which is correct for the sequential simulator. *)

val set_base : int -> unit
(** Offset added to every timestamp.  The fault-injection engine bumps
    it between campaign runs so each run (whose device clock restarts at
    zero) lands on its own stretch of the exported timeline. *)

val now_us : unit -> int
(** Base plus the installed clock. *)

(** {2 Metrics} *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val observe_us : histogram -> int -> unit

val metrics_dump : unit -> string
(** Human-readable text dump: one sorted [kind name value] line per
    metric (histograms render their bucket counts inline). *)

val metrics_json : unit -> string
(** The registry as a JSON object with [counters], [gauges] and
    [histograms] members; floats rendered via {!Artemis_util.Json} so
    the document stays valid for degenerate values. *)

(** {2 Tracing} *)

val span :
  cat:string ->
  ?args:(string * arg) list ->
  begin_us:int ->
  end_us:int ->
  string ->
  unit
(** Emit one balanced B/E pair on the category's track.  Both events are
    appended together, so a crash-interrupted caller that reaches its
    exit path (or exception handler) can never leave a dangling B. *)

val instant : cat:string -> ?args:(string * arg) list -> ?ts:int -> string -> unit
(** Instant event ([ph:"i"]); [ts] defaults to {!now_us}. *)

val event_count : unit -> int

val trace_json : unit -> string
(** The collected events as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}]) with thread-name metadata so Perfetto
    labels each category's track. *)
