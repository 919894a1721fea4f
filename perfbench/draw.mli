(** The serve workloads' request grids and their seeded, skewed draw.

    A grid is a fixed list of distinct requests; its order, set by how
    the grid is built (query classes or task families interleaved), is
    the popularity rank.  A run of [n] requests is one pass over the
    grid in rank order — every request appears at least once, so each
    run does the same cold computations in the same order — followed by
    [n - k] requests apportioned to the [k] ranks by Zipf shares with
    exponent {!zipf_s} and put in seeded order.  The seed (a SplitMix64
    stream) decides that order only; the multiset of requests is the
    workload's, so runs with different seeds do the same work.  The
    skew is an assumption (no recorded traffic exists to fit it to).
    The program only ever sees the generated request lines. *)

type request = {
  cls : string;  (** query class: ping, closure, solvable, equiv, complex-stats *)
  meth : string;
  params : (string * Jsonl.t) list;
  key : string;  (** [meth] and rendered params: identifies the request *)
}

type grid = request list
(** In popularity rank. *)

val cold_grid : grid
(** serve-cold: closure (consensus, relaxed-consensus, 2set, aa,
    liberal-aa, and consensus under test-and-set; n = 2, 3), solvable
    (consensus, relaxed-consensus, aa; n = 2, 3; rounds 1, 2; but not
    aa at n = 3 in 2 rounds, whose repeats each re-verify a large
    stored solution), equiv
    (iis/snapshot/collect pairs; n = 2, 3), complex-stats and ping,
    interleaved by class. *)

val warm_grid : grid
(** serve-warm: the 18 atlas cells the wire protocol can reach —
    {immediate, snapshot} x {consensus, relaxed-consensus at n = 2, 3;
    2set at n = 3; aa at m = 4, eps in {1/2, 1/4}, n = 2, 3} — as five
    task families, each in (n, model) order, interleaved. *)

val smoke_cold_grid : grid
val smoke_warm_grid : grid
(** Small grids for smoke runs: n = 2 requests only (the warm one
    matches an atlas built with max-n 2). *)

val classes : string list

val line : id:int -> request -> string
(** The request line sent on the wire (no trailing newline). *)

(** {2 Seeded draw} *)

val zipf_s : float
(** The draw's Zipf exponent, 1 for both grids. *)

val zipf_counts : s:float -> int -> int -> int array
(** [zipf_counts ~s k m]: the number of requests each of [k] ranks gets
    out of [m] (largest-remainder apportionment of the shares
    [r^-s / sum]). *)

val draw : seed:int -> grid -> int -> request array
(** [draw ~seed grid n]: the grid in rank order, then the Zipf
    multiset of the other [n - k] requests shuffled.  The same seed gives the same
    array.  @raise Invalid_argument when [n] is smaller than the grid. *)
