(** Order statistics for the benchmark's reports.

    Percentiles use the nearest-rank rule: the [p]-th percentile of [n]
    samples is the sample of rank [ceil (p/100 * n)], so exactly
    [n - rank] samples lie beyond it.  A tail percentile is only
    trustworthy with at least {!min_beyond} samples beyond it; that is
    why a serve run needs at least 1000 requests before it reports
    p99. *)

val min_beyond : int
(** 10. *)

val rank : n:int -> float -> int
(** [rank ~n p], in [1..n].  @raise Invalid_argument when [n < 1]. *)

val beyond : n:int -> float -> int
(** Samples strictly after the rank-[p] sample: [n - rank ~n p]. *)

val tail_supported : n:int -> float -> bool
(** [beyond ~n p >= min_beyond]. *)

val min_samples_for : float -> int
(** The least [n] with [tail_supported ~n p] (1000 for p = 99). *)

val percentile : float array -> float -> float
(** On a sorted, non-empty array. *)

val sorted : float list -> float array

val median : float list -> float
(** Nearest-rank p50 of a non-empty list (a measured value, never an
    interpolation). *)

val quartiles : float list -> float * float * float
(** [(q1, median, q3)] by the "exclusive" method of Python's
    [statistics.quantiles(xs, n=4)], so the benchmark's own spread
    reads the same as an outside check of its outputs.  Needs at least
    two samples; a single sample gives [(x, x, x)]. *)
