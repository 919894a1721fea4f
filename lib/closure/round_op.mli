(** One-round protocol operators, the model parameter of the closure.

    A round operator maps a simplex to the facets of its one-round
    protocol complex.  The closure of a task (Definition 2) and the
    speedup theorem are parameterized by such an operator, which lets
    the same code cover the plain iterated models (Theorem 1) and the
    augmented ones (Theorem 2, and the β-restricted boxes of
    Theorem 4 / Claim 5). *)

type t

val name : t -> string
val facets : t -> Simplex.t -> Simplex.t list
(** Facets of the one-round protocol complex [P^(1)(σ)]. *)

val plain : Model.t -> t
(** Write-collect, write-snapshot, or immediate snapshot. *)

val augmented : box:Black_box.t -> alpha:Augmented.alpha -> round:int -> t
(** IIS augmented with a black box, inputs given by [α(·, ·, round)]. *)

val test_and_set : t
(** IIS + test&set (the box takes no meaningful input). *)

val bin_consensus_beta : (int -> bool) -> t
(** IIS + binary consensus where process [i] always proposes [β(i)] —
    the ID-only restriction of Theorem 4. *)

val custom : name:string -> (Simplex.t -> Simplex.t list) -> t
(** Any view-valued one-round operator whose solo vertices have the
    plain [(i, {(i, x_i)})] shape (no black box). *)

val k_concurrency : int -> t
(** The affine [k]-concurrency model (Section 1.2; removes IS
    executions with blocks larger than [k]). *)

val d_solo : int -> t
(** The [d]-solo model (Section 1.2; adds executions where up to [d]
    processes run solo concurrently). *)

val algebra : Algebra.t -> t
(** A compiled model-algebra term (docs/MODELS.md), named by its
    canonical rendering: normalizer-equal terms share one operator
    name and therefore one set of memo and cert-store entries. *)

val persistent : t -> bool
(** Whether the operator's name identifies its semantics {e across}
    sessions, so closure results for it may be persisted in the
    certificate store.  Plain models, [test_and_set], and the affine
    variants qualify; operators with session-unique names (the
    [augmented] and [bin_consensus_beta] instances, whose α/β are
    arbitrary functions) do not — the same ["beta#1"] could denote
    different semantics in two different sessions. *)

val layout_key : t -> Simplex.t -> Solvability.layout_key option
(** The key under which {!Solvability.local_task_solvable} shares the
    local task's CSP layout across candidates [τ]: the model name for
    plain models, the box name and the box inputs α of [τ]'s vertices
    for augmented ones, and [None] for custom operators (algebra
    terms, k-concurrency, d-solo), which are decided without sharing.
    Independent of the operator's name, which may be session-unique. *)

val complex : t -> Simplex.t -> Complex.t
val solo_vertex : t -> Simplex.t -> int -> Vertex.t
(** The vertex of the one-round complex where process [i] runs solo.
    Well-defined for all operators used in this repository because
    their boxes are deterministic on solo executions. *)
