(** Distributed tasks [Π = (I, O, Δ)] (Section 2.2).

    Input and output complexes are kept lazy because some tasks
    (approximate agreement over a fine grid) have large complexes that
    most computations never materialize: the solver and the closure
    operator only query [delta] on specific simplices. *)

type t = {
  name : string;
  arity : int;  (** number of processes [n] *)
  inputs : Complex.t Lazy.t;
  outputs : Complex.t Lazy.t;
  delta : Simplex.t -> Complex.t;
      (** [Δ(σ)]: the output simplices legal for input [σ], as a
          complex whose facets carry exactly the colors of [σ]. *)
  delta_proj : Simplex.t -> int list -> Complex.t;
      (** [proj_ids(Δ(σ))], memoized per (σ, color set); see
          {!val-delta_proj}. *)
}

val make :
  name:string -> arity:int -> inputs:Complex.t Lazy.t ->
  outputs:Complex.t Lazy.t -> delta:(Simplex.t -> Complex.t) -> t

val inputs : t -> Complex.t
val outputs : t -> Complex.t
val delta : t -> Simplex.t -> Complex.t

val delta_proj : t -> Simplex.t -> int list -> Complex.t
(** [delta_proj t σ ids] is [Complex.proj ids (delta t σ)], memoized
    per (σ, color set) next to the [Δ(σ)] memo, so repeated calls
    return one physical complex.  When [ids] covers every color of
    [Δ(σ)] (for instance [ids = ID(σ)]) it is [delta t σ] itself. *)

val input_simplices : t -> Simplex.t list
(** Every simplex of the input complex (facets and faces); the
    constraint generators for solvability. *)

val restrict_inputs : t -> Complex.t -> t
(** Same specification on a subcomplex of inputs.  Unsolvability of
    the restriction implies unsolvability of the task. *)

val with_name : string -> t -> t

val delta_candidates : t -> Simplex.t -> int -> Vertex.t list
(** Vertices of [Δ(σ)] with the given color — the per-process output
    candidates used by closure enumeration. *)

val delta_equal_on : t -> t -> Simplex.t list -> bool
(** Whether the two tasks' [Δ] agree (as complexes) on each given
    input simplex. *)

val delta_subset_on : t -> t -> Simplex.t list -> bool
(** Whether [Δ₁(σ) ⊆ Δ₂(σ)] on each given input simplex. *)

val carrier_map_on : t -> Simplex.t list -> bool
(** Checks the carrier-map property [σ' ⊆ σ ⇒ Δ(σ') ⊆ Δ(σ)] over the
    given simplices and their faces. *)

val chromatic_output_sets : t -> Simplex.t -> Simplex.t list
(** All chromatic sets [τ ⊆ V(Δ(σ))] with [ID(τ) = ID(σ)], each
    packaged as an (abstract) simplex — the candidate outputs of the
    closure task (Definition 2).  These sets need not be simplices of
    [Δ(σ)]. *)
