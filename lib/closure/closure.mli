(** The closure of a task with respect to a model (Definition 2).

    [Δ'(σ)] consists of all chromatic sets [τ ⊆ V(Δ(σ))] with
    [ID(τ) = ID(σ)] whose local task [Π_{τ,σ}] is solvable in at most
    one round of the model; always [Δ(σ) ⊆ Δ'(σ)].

    Results are cached at two levels.  An in-memory memo table (per
    operator name, task name and σ) serves repeated queries within a
    session; it can be bypassed per call with [~memo:false].  When the
    certificate store is enabled ([Cert_store.set_dir] or the
    [CERT_CACHE_DIR] environment variable) and the operator is
    {!Round_op.persistent}, results are additionally persisted as
    proof-carrying certificates: a warm store answers enumeration and
    membership queries by {!Cert.verify}-ing the stored witnesses
    instead of re-running the solvability search, and entries that fail
    verification are quarantined and recomputed. *)

exception Undecided_local_task of { sigma : Simplex.t; tau : Simplex.t }
(** A membership search for [τ ∈ Δ'(σ)] hit the solver's node limit,
    so Definition 2 cannot be decided for that candidate.  Raised
    before anything is memoized or persisted for [σ]. *)

val delta :
  ?node_limit:int -> ?should_stop:(unit -> bool) -> ?memo:bool ->
  op:Round_op.t -> Task.t -> Simplex.t ->
  Complex.t
(** [Δ'(σ)], computed by enumerating candidate chromatic sets and
    running the local-task solvability test on each.  Memoized per
    (operator name, task name, σ) unless [~memo:false]: operator and
    task names must therefore identify their semantics — [Round_op]
    guarantees this by giving every augmented operator instance a
    unique name, and task constructors encode their parameters in the
    name.  Read/write-through the certificate store for persistent
    operators.

    [should_stop] is the cooperative cancellation hook, threaded down
    to every per-candidate {!Csp.solve}.  When it fires,
    [Csp.Interrupted] escapes {e before} anything is memoized or
    persisted, so an interrupted enumeration never poisons the caches.
    @raise Csp.Interrupted when [should_stop] returns [true].
    @raise Undecided_local_task if some local-task instance is
    undecided. *)

val task : ?node_limit:int -> ?memo:bool -> op:Round_op.t -> Task.t -> Task.t
(** The closure task [CL_M(Π) = (I, O', Δ')].  Its [outputs] complex
    (the images of Δ' and their faces, over all input simplices) is
    lazy and rarely needed. *)

val tau_member :
  ?node_limit:int -> op:Round_op.t -> Task.t -> sigma:Simplex.t ->
  tau:Simplex.t -> bool
(** Membership [τ ∈ Δ'(σ)] without enumerating all of [Δ'(σ)]. *)

val witness :
  ?node_limit:int -> op:Round_op.t -> Task.t -> sigma:Simplex.t ->
  tau:Simplex.t -> Simplicial_map.t option
(** The one-round decision map solving the local task [Π_{τ,σ}] when
    [τ ∈ Δ'(σ)] — the simplicial map illustrated by Figure 2 (the
    subdivision of τ mapped into the dark subcomplex of Δ(σ)).
    [None] when τ is not in the closure.  Zero-round memberships
    (τ already a simplex of Δ(σ)) are witnessed by the map sending
    every view to its owner's τ-vertex. *)

val delta_any :
  ?node_limit:int -> ?memo:bool -> ops:Round_op.t list -> name:string ->
  Task.t -> Simplex.t -> Complex.t
(** Closure when the one-round local algorithm may pick its black-box
    inputs: [τ ∈ Δ'(σ)] iff the local task is solvable under {e some}
    operator of the list.  Used for the unrestricted binary-consensus
    model: in the Theorem 2 proof the box input of a process in the
    local algorithm is a constant, so quantifying over all per-process
    constant assignments [β] is exactly Definition 2 for that model.
    [name] keys the memo table.  Never persisted to the certificate
    store (the β operators are session-local). *)

val bin_consensus_ops : int list -> Round_op.t list
(** The [2^{|ids|}] operators "IIS + binary consensus with constant
    proposals β", one per [β : ids → {0,1}]. *)

val fixed_point_on :
  ?node_limit:int -> op:Round_op.t -> Task.t -> Simplex.t list -> bool
(** Whether [Δ'(σ) = Δ(σ)] on every listed input simplex — the
    fixed-point condition of Lemma 1, checked extensionally.  A
    positive answer is persisted as a {!Cert.Fixed_point} certificate
    when the store is enabled. *)

val iterate : ?node_limit:int -> op:Round_op.t -> int -> Task.t -> Task.t
(** [iterate op k task]: the [k]-fold closure
    [CL_M(CL_M(… CL_M(Π)))]. *)

val equal_on :
  ?node_limit:int -> op:Round_op.t -> Task.t -> reference:Task.t ->
  Simplex.t list -> bool
(** Whether the closure's Δ' agrees with the reference task's Δ on
    every listed simplex (e.g. Claim 2: closure of ε-AA vs 3ε-AA). *)

(** {2 Observability} *)

type memo_stats = {
  hits : int;  (** in-memory memo hits *)
  misses : int;  (** in-memory memo misses (memoizing calls only) *)
  entries : int;  (** simplices currently memoized, over all tables *)
  enumerations : int;
      (** full candidate-set enumerations actually performed — stays at
          0 on a run fully served by the memo and the certificate
          store *)
}

val memo_stats : unit -> memo_stats
(** The memo is one table guarded by a mutex and the counters are
    atomic, so every field is exact at all times, including
    while pool batches are in flight.  [enumerations] is incremented
    on the caller before the parallel fan-out, so a warm-store run
    reports [enumerations=0] at any job count. *)

val reset_memo : unit -> unit
(** Clear the memo tables and zero the counters (store stats are
    tracked separately by {!Cert_store.stats}).  Safe to call while
    other domains are computing: an entry they insert afterwards is
    still the Δ'(σ) of its key. *)
