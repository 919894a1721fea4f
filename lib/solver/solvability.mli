(** Deciding task solvability: "is there a chromatic simplicial map
    [f : P^(t) → O] agreeing with Δ?" (Section 2.2).

    An instance is built from a list of input simplices, a protocol
    operator [σ ↦ P^(t)(σ)], and the task's Δ.  Constraints: for every
    listed input simplex [σ] and every facet [ρ] of [P^(t)(σ)], the
    image [f(ρ)] must be a simplex of [Δ(σ)].  Restricting the input
    list to a subfamily yields a relaxation, so [Unsat] on a subfamily
    is already a proof of unsolvability. *)

type verdict = Solvable of Simplicial_map.t | Unsolvable | Undecided

val is_solvable : verdict -> bool
(** [true] only on [Solvable _]. *)

val decide :
  ?node_limit:int ->
  ?should_stop:(unit -> bool) ->
  inputs:Simplex.t list ->
  protocol:(Simplex.t -> Complex.t) ->
  delta:(Simplex.t -> Complex.t) ->
  unit ->
  verdict
(** Core entry point.  [Undecided] only when the node limit is hit.
    [should_stop] is forwarded to {!Csp.solve}; when it fires,
    [Csp.Interrupted] escapes before any verdict (or certificate) is
    produced. *)

val task_in_model :
  ?node_limit:int -> ?should_stop:(unit -> bool) -> ?inputs:Simplex.t list ->
  Model.t -> Task.t -> rounds:int ->
  verdict
(** Solvability of a task after [rounds] rounds of the given iterated
    model.  [inputs] defaults to every simplex of the task's input
    complex.

    When the certificate store is enabled ([CERT_CACHE_DIR] or
    [Cert.Store.set_dir]) and the task name is reconstructible
    ([Cert_registry.known_task]), verdicts are served from verified
    [Solution] certificates and decided instances are written back;
    certificates that fail verification are quarantined and the
    instance is re-decided. *)

val task_in_augmented :
  ?node_limit:int -> ?should_stop:(unit -> bool) -> ?inputs:Simplex.t list ->
  box:Black_box.t -> alpha:Augmented.alpha -> Task.t -> rounds:int ->
  verdict
(** Same in IIS augmented with a black box (Algorithm 2). *)

val min_rounds :
  ?node_limit:int -> ?inputs:Simplex.t list -> ?max_rounds:int ->
  Model.t -> Task.t -> int option
(** Smallest [t] such that the task is solvable in [t] rounds, scanning
    [t = 0, 1, …, max_rounds] (default 6).  [None] if none is found (or
    a scan step was undecided). *)

type layout_key = string * Value.t list
(** Names a one-round operator up to the values of τ: the operator's
    semantics (model or box name) and whatever of τ's values the
    one-round complex reads besides the views (the box inputs α of
    τ's vertices, in color order; [[]] for the plain models).  Two
    simplices with equal keys and color sets must have one-round
    complexes related by the relabeling χ ({!Model.chi}). *)

type index
(** What the local tasks [Π_{τ,σ}] of one σ share, for every τ: the
    candidates of each color of [Δ(σ)] (numbered as
    [Complex.vertices_of_color]), their ids, and the compiled table of
    every face color set of σ with two or more colors.  Immutable once
    built, so one index may be read from any number of domains. *)

val index : Task.t -> Simplex.t -> index
(** [index task σ]. *)

val local_task_solvable :
  ?node_limit:int ->
  ?should_stop:(unit -> bool) ->
  ?layout_key:layout_key ->
  ?index:index ->
  one_round:(Simplex.t -> Simplex.t list) ->
  Task.t -> sigma:Simplex.t -> tau:Simplex.t ->
  verdict
(** One-round solvability of the local task [Π_{τ,σ}] — the membership
    test of Definition 2.  [one_round] produces the facets of the
    one-round protocol complex of the model under consideration (plain
    or augmented).

    Candidates and tables come from [index], which must be
    [index task σ] (built here when absent); τ's vertices are pinned
    on its solo faces.  With [layout_key], the CSP layout (variables,
    facet scopes) of the faces of τ is read from a process-wide table
    keyed by ([layout_key], ID(τ)), built from the first τ seen with
    that key, and the witness is relabeled onto τ with {!Model.chi}:
    verdicts and witnesses are exactly those of the unkeyed path,
    which builds the layout from [one_round] on every call.
    @raise Invalid_argument if [ID(τ) ≠ ID(σ)] or some vertex of τ is
    not a vertex of [Δ(σ)]. *)

val index_candidates : index -> int -> Vertex.t array
(** The candidates of one color.  A test hook. *)

val index_tables : index -> (int list * int array array) list
(** The face color sets of the index with their tuples, decoded from
    the compiled tables ({!Csp.tuples}).  A test hook. *)

val layout_protocols :
  layout_key -> one_round:(Simplex.t -> Simplex.t list) -> Simplex.t ->
  Simplex.t list list
(** The protocol facets of every face of τ (in {!Simplex.faces} order)
    exactly as the keyed path of {!local_task_solvable} sees them:
    read from the shared layout and relabeled onto τ.  A test hook,
    for comparing against [Complex.of_facets (one_round τ')]. *)

type stats = { layouts : int; layout_hits : int; index_tables : int }
(** Entries of the layout table, lookups it answered, and tables
    compiled into indexes. *)

val stats : unit -> stats
