(** Work-stealing parallel map over OCaml 5 domains.

    Built for the campaign/sweep fan-out: the index space is split into
    one contiguous range per worker, workers self-schedule [chunk]-sized
    chunks off their own range and steal the upper half of the fattest
    remaining range when theirs drains.  Results are written at their
    input index, so the output array is in input order regardless of
    which domain ran what - the deterministic-merge property the
    parallel faultsim runner depends on.

    The mapped function runs on worker domains: it must not touch
    domain-unsafe shared state.  Each spawned domain starts with its own
    quiet {!Artemis_obs.Obs} context, and simulator callers build a
    fresh Device/Nvm/Suite per index, so runs are isolated by
    construction. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: what [--jobs] defaults to when
    the caller asks for "all cores" ([--jobs 0] in the CLIs). *)

val jobs_of_flag : prog:string -> int -> (int, string) result
(** The CLIs' shared [--jobs N] policy: [0] means {!recommended_jobs}, a
    positive [N] is taken as given, and a negative one is an [Error]
    carrying the usage message
    ["<prog>: --jobs must be 0 (auto) or positive (got N)"] (the binaries
    print it and exit 2). *)

val auto_chunk : jobs:int -> int -> int
(** The default chunk for an [n]-item map over [jobs] workers:
    [max 1 (n / (jobs * 8))].  The whole map then costs O(jobs) lock
    operations instead of O(n), while steals can still rebalance a
    skewed tail. *)

val map : jobs:int -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [Array.init n f] evaluated in parallel.  The
    effective worker count is [jobs] capped at both [n] and
    {!recommended_jobs} - extra domains beyond the machine's cores can
    only time-slice and stall every minor GC, so they are never spawned
    (an effective count of 1 runs inline with no domain spawned).
    [chunk] is how many consecutive indices a worker claims per queue
    operation; it defaults to {!auto_chunk} and results are identical
    for every chunk value.  If [f] raises, the first exception (by
    completion order) is re-raised after all workers drain.

    @raise Invalid_argument if [jobs < 1] or [chunk < 1]. *)

val map_list : jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}, preserving order. *)
