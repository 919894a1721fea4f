(** Mechanized asynchronous speedup theorem (Theorems 1 and 2).

    Given a [t]-round solution [f] of a task, the proofs construct the
    [(t-1)]-round map [f'(i, V_i) = f(i, {(i, V_i)})] (with the solo
    black-box output inserted in the augmented case) and show it solves
    the closure.  This module builds [f'] explicitly and checks, on
    concrete instances, that it is simplicial and agrees with the
    closure's Δ' — verifying the construction, not just the statement.

    The augmented settings cover the cases the paper applies Theorem 2
    to: boxes whose round-[t] input is independent of the view
    (test&set takes no input; Theorem 4 restricts binary consensus to
    ID-only inputs). *)

type setting
(** An iterated model together with its closure operator. *)

val of_model : Model.t -> setting
val of_test_and_set : setting
val of_bin_consensus_beta : (round:int -> int -> bool) -> setting
(** Binary consensus with per-round ID-only inputs [β_r(i)]; the
    closure after a [t]-round run is taken w.r.t. [β_t] (Claim 5). *)

val setting_name : setting -> string
val protocol : setting -> Simplex.t -> int -> Complex.t
val closure_op : setting -> rounds:int -> Round_op.t
(** The one-round operator used for the closure of a [rounds]-round
    algorithm (for β settings this is the round-[rounds] β). *)

type report = {
  base : Solvability.verdict;  (** Π solvable in [t] rounds? *)
  construction_valid : bool;
      (** [f'] derived from the [t]-round map is simplicial and agrees
          with Δ' of the closure ([false] when [base] is not
          solvable). *)
  closure_direct : Solvability.verdict;
      (** independent solver run: closure solvable in [t-1] rounds;
          when [base] is not solvable, this is [base] itself, and it is
          [Undecided] when a closure membership search hit the node
          limit. *)
}

val speedup_holds : report -> bool
(** The theorem's guarantee on this instance: either the base task is
    unsolvable, or both the construction and the direct check
    succeed.  An [Undecided] base (node limit hit) is not a pass. *)

val verify :
  ?node_limit:int -> ?memo:bool -> setting -> Task.t -> rounds:int ->
  inputs:Simplex.t list -> report
(** Checks the speedup theorem for one task/round-count instance over
    the given input simplices.  [?memo] is forwarded to
    {!Closure.delta} (default [true]). *)

val derive_map :
  setting -> task:Task.t -> rounds:int -> inputs:Simplex.t list ->
  f:Simplicial_map.t -> Simplicial_map.t
(** The explicit [f'] of the proof of Theorem 1/2, defined on the
    vertices of [P^(t-1)(σ)] for the given inputs. *)
