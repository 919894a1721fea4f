(** A fixed-size domain pool with work-stealing scheduling for
    data-parallel fan-outs.

    The pool is dependency-free (OCaml 5 [Domain] + [Mutex] /
    [Condition] + [Atomic] only) and built for the repo's three hot
    fan-outs: closure enumeration over candidate chromatic sets,
    adversary sweeps over schedules, and the per-input protocol/Δ
    construction pass of the solver.

    {2 Determinism guarantee}

    Results are collected in input order, so for a pure (or
    commutatively-effectful) [f], [map f l] returns exactly
    [List.map f l] regardless of the job count.  Parallelism must
    never change a reproduced table: callers rely on this to keep
    experiment output byte-identical across [SPEEDUP_JOBS] settings.
    Work distribution is by pre-split index chunks dealt into
    per-participant deques (owners pop LIFO, thieves steal FIFO
    halves); every chunk writes its results to disjoint indices, so
    the steal schedule can never reorder or change an output.

    {2 Job count}

    The job count is resolved, in order of precedence, from
    {!set_jobs}, the [SPEEDUP_JOBS] environment variable, and
    [Domain.recommended_domain_count ()].  With one job every
    combinator takes the plain sequential [List] path — no domains are
    spawned, no arrays allocated — so [SPEEDUP_JOBS=1] is
    byte-for-byte the pre-parallel behaviour.

    [SPEEDUP_JOBS] must be a positive integer; [0], negatives, and
    garbage raise [Invalid_argument] at resolution time rather than
    silently picking some other job count.  An unset or
    empty/whitespace-only value means "use the default" (empty counts
    as unset because [Unix.putenv] cannot remove a variable).  The
    [speedup] CLI validates the variable once at startup so users get
    the error before any work starts.

    {2 Granularity}

    Every combinator takes an optional [?grain]: the minimum number of
    items per chunk.  A fan-out of [len <= grain] items runs on the
    calling domain (the sequential path) — sub-millisecond work items
    are cheaper to run inline than to hand to another domain, so call
    sites that know their per-item cost pass a grain and tiny sweeps
    never cross a domain boundary.  [SPEEDUP_GRAIN] (validated like
    [SPEEDUP_JOBS]) raises the floor globally; the effective grain is
    the max of the two.  Above the cutoff, chunk sizes adapt to the
    input: ~8 chunks per participant, never below the grain.

    {2 Nesting and re-entrancy}

    A function running inside a pool batch (worker domain or the
    submitting domain, which participates in its own batch) that calls
    back into [map]/[filter_map]/[for_all] gets the sequential path:
    nested parallelism is flattened rather than deadlocking on the
    pool.  Worker domains are spawned lazily on the first parallel
    batch and live for the rest of the session, idling on a condition
    variable between batches.

    {2 Resident processes}

    Because worker domains live for the rest of the process, a
    long-running server pays the spawn cost once.  The
    one-batch-at-a-time discipline ([submit_lock]) makes concurrent
    submitters (e.g. several query-daemon worker domains calling into
    {!Closure}) safe: their batches serialize, and a submitter that is
    itself a pool participant flattens to the sequential path instead
    of deadlocking.  See the server test-suite, which exercises the
    pool under a resident multi-domain process at several job
    counts. *)

val jobs : unit -> int
(** The effective job count (≥ 1): the {!set_jobs} override if any,
    else [SPEEDUP_JOBS] when set, else
    [Domain.recommended_domain_count ()].
    @raise Invalid_argument when [SPEEDUP_JOBS] is set (and non-empty)
    but is not a positive integer. *)

val set_jobs : int option -> unit
(** [set_jobs (Some n)] overrides the job count for subsequent
    batches; [set_jobs None] drops the override, returning to the
    environment.  Used by the bench harness to compare job counts
    within one process.
    @raise Invalid_argument when [n < 1]. *)

val in_parallel_region : unit -> bool
(** Whether the calling domain is currently executing pool work (a
    worker domain, or the submitter inside one of its own batches).
    Combinators consult this to flatten nested parallelism. *)

(** {2 Observability}

    Cumulative counters over all batches since process start (or the
    last {!reset_stats}).  The sequential path — [jobs () = 1], nested
    calls, fan-outs at or below the grain — executes no chunks and is
    deliberately invisible here: the counters measure domain-crossing
    work only, which is what contention regressions show up in. *)

type stats = {
  batches : int;  (** parallel batches submitted *)
  chunks : int;  (** chunks executed across all participants *)
  items : int;  (** work items covered by those chunks *)
  steals : int;  (** successful steal operations *)
  stolen_chunks : int;  (** chunks moved by those steals *)
  domain_chunks : (int * int) list;
      (** chunks executed per participant slot, sorted by slot; slot 0
          is the first participant through the batch gate (usually the
          submitter), not a fixed physical domain *)
}

val stats : unit -> stats
(** A consistent snapshot of the counters.  Exact once no batch is in
    flight (participants merge their tallies at batch exit). *)

val reset_stats : unit -> unit
(** Zero all counters.  Test/bench plumbing. *)

val map : ?grain:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map: [map f l = List.map f l] for pure
    [f].  Work is pre-split into index chunks (≈ 8 per job, ≥ [grain]
    items each) dealt into per-participant deques; idle participants
    steal, so unevenly-priced items load-balance without a shared
    cursor.  If one or more applications of [f] raise, the first
    exception observed cancels the remaining chunks and is re-raised
    on the caller (with its backtrace). *)

val filter_map : ?grain:int -> ('a -> 'b option) -> 'a list -> 'b list
(** Order-preserving parallel filter_map, with the same distribution,
    cancellation, and exception contract as {!map}. *)

val filter : ?grain:int -> ('a -> bool) -> 'a list -> 'a list
(** Order-preserving parallel filter. *)

val for_all : ?grain:int -> ('a -> bool) -> 'a list -> bool
(** Parallel universal quantifier.  A [false] result cancels the
    remaining chunks (early exit), so [p] may be applied to fewer
    elements than the sequential [List.for_all] — or to more, since
    chunks already in flight complete; [p] must therefore be pure or
    effect-tolerant.  The boolean result is deterministic. *)
