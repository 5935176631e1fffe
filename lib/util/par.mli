(** Parallel map over OCaml 5 domains.

    Built for the campaign/sweep fan-out: workers claim indices one at a
    time off a shared atomic counter, and results are written at their
    input index, so the output array is in input order regardless of
    which domain ran what - the deterministic-merge property the
    parallel faultsim runner depends on.

    The mapped function runs on worker domains: it must not touch
    domain-unsafe shared state.  Each spawned domain starts with its own
    quiet {!Artemis_obs.Obs} context, and simulator callers build a
    fresh Device/Nvm/Suite per index, so runs are isolated by
    construction.  Code that records metrics or traces fans out through
    {!Artemis_obs.Obs.par_map} instead. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: what [--jobs] defaults to when
    the caller asks for "all cores" ([--jobs 0] in the CLIs). *)

val map : jobs:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [Array.init n f] evaluated in parallel.  The
    effective worker count is [jobs] capped at both [n] and
    {!recommended_jobs} - extra domains beyond the machine's cores can
    only time-slice and stall every minor GC, so they are never spawned
    (an effective count of 1 runs inline with no domain spawned).  If
    [f] raises, the first exception (by completion order) is re-raised
    after all workers drain; no worker claims a new index once one has
    raised.

    @raise Invalid_argument if [jobs < 1]. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}, preserving order. *)
