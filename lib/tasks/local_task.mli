(** Local tasks [Π_{τ,σ}] (Definition 1).

    Given a task [Π], an input simplex [σ], and a chromatic set
    [τ ⊆ V(Δ(σ))] with [ID(τ) = ID(σ)], the local task has input
    complex [τ] (all faces of the abstract simplex on τ's vertices),
    output complex [Δ(σ)], and specification
    - [Δ_{τ,σ}(v) = {v}] on vertices (solo processes are pinned to
      their τ-value),
    - [Δ_{τ,σ}(τ') = proj_{ID(τ')}(Δ(σ))] on larger faces, read from
      {!Task.delta_proj}: the local tasks of every τ of one σ share one
      physical complex per color set.

    [CL_M(Π)] membership of τ (Definition 2) is exactly one-round
    solvability of this task in M. *)

val make : Task.t -> sigma:Simplex.t -> tau:Simplex.t -> Task.t
(** @raise Invalid_argument if [ID(τ) ≠ ID(σ)] or some vertex of [τ]
    is not a vertex of [Δ(σ)]. *)

val is_valid_tau : Task.t -> sigma:Simplex.t -> tau:Simplex.t -> bool
(** The side conditions of Definition 2: [τ] chromatic (guaranteed by
    the [Simplex.t] type), [ID(τ) = ID(σ)], [τ ⊆ V(Δ(σ))]. *)
