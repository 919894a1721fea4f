(** Task-solvability equivalence of model-algebra terms on small
    instances (docs/MODELS.md).

    Two one-round run sets are {e distinguishable} when some task is
    solvable under one but not the other, or when their closures
    disagree.  [decide] probes a fixed battery of registry-resolvable
    tasks at every instance size up to a bound [n] — binary consensus,
    1/2-approximate agreement on two registers, and (from three
    processes on) 2-set agreement — comparing,
    for each task, (1) a canonical fingerprint of the closure [Δ'] of
    every input simplex under each term, and (2) on instances with at
    most two processes, the one-round solvability verdict of the
    solver pipeline (the exhaustive map search grows
    super-exponentially with the instance, and the per-σ closure
    fingerprints are a strictly finer invariant at the larger sizes).
    The terms are equivalent (relative to the battery and bound) iff
    every probe agrees.

    Verdicts are memoized in-process and, when the certificate store
    is enabled, persisted as {!Cert.Equivalence} certificates keyed on
    the canonically-ordered pair of term renderings — a warm rerun
    answers from the store with zero enumerations.  The inner closure
    runs share the ordinary {!Closure.delta} memo and store entries,
    so probing [t ≡ u] warms the same caches any other pipeline use of
    [t] and [u] would. *)

type probe = {
  label : string;  (** e.g. ["closure[binary-consensus(n=2)]"] *)
  lhs : string;  (** fingerprint of the left term under this probe *)
  rhs : string;
}
(** A probe agrees iff the two fingerprints are equal.  Closure probes
    carry a digest of the canonical rendering of every [Δ'(σ)];
    solvability probes carry the verdict name. *)

type outcome = {
  lhs : Algebra.t;
  rhs : Algebra.t;
  n : int;
  equivalent : bool;
  probes : probe list;
}

val decide :
  ?node_limit:int ->
  ?should_stop:(unit -> bool) ->
  ?memo:bool ->
  n:int ->
  Algebra.t ->
  Algebra.t ->
  outcome
(** Decide equivalence at bound [n ≥ 1].  Physically equal terms are
    equivalent by canonical form, with a single syntactic probe and no
    store interaction.  [memo:false] bypasses the in-process verdict
    memo (the certificate store, when enabled, still applies).
    @raise Invalid_argument if [n < 1].
    @raise Csp.Interrupted when [should_stop] fires.
    @raise Closure.Undecided_local_task if an inner closure instance
    is undecided. *)

val disagreement : outcome -> probe option
(** The first probe whose fingerprints differ, if any. *)
