(** Proof certificates: serializable, independently checkable evidence
    for the results the engine computes.

    Every expensive verdict — a closure membership τ ∈ Δ'(σ) with its
    one-round decision map (the Figure 2 witness), a full Δ'(σ)
    enumeration, a solver run, a fixed-point check (Lemma 1 /
    Corollary 1), an impossibility obstruction — can be packaged as a
    certificate, persisted in the content-addressed store
    ([Cert.Store]), shipped, and re-validated by [verify] in
    milliseconds without rerunning any search.

    What [verify] guarantees, by kind:
    - {b Membership} (member, with witness): the witness map is
      chromatic, total on the one-round complex of every face of τ,
      and sends each of its facets into the local task's Δ — exactly
      the solvability constraints of Definition 2, checked directly.
    - {b Membership} (member, zero-round): τ is a simplex of Δ(σ).
    - {b Enumeration}: each listed member passes the membership check,
      and Δ(σ) ⊆ the members (the closure always contains Δ).
    - {b Solution} (solvable): the decision map is chromatic and sends
      every facet of [P^(rounds)(σ)] into Δ(σ) for each recorded input.
    - {b Fixed_point}: the recorded Δ'(σ) facets form exactly Δ(σ) for
      every recorded σ.
    - {b Unsolvable}: the combinatorial obstruction is re-checked
      (disconnection re-searched, Sperner labelings re-sampled).

    - {b Equivalence}: both term names parse as canonical model-algebra
      terms, the pair is in canonical order, and the verdict equals the
      conjunction of the recorded probe agreements.
    - {b Atlas}: every cell's operator and task resolve in the
      registry, the task name is canonical, and the recorded keys are
      exactly the [Q_delta] content addresses of the task's input
      simplices — recomputed, without enumeration.  Whether the keyed
      entries are present and valid is the store-level audit
      ([speedup atlas verify]).

    Negative facts (a membership with [member = false], a solution with
    [verdict = false], the completeness of an enumeration, and the
    probe fingerprints of an equivalence verdict) are consequences of
    an exhausted search; they carry no compact witness and are only
    structurally validated — the store's versioned keys scope how far
    they are trusted.  See docs/CERTIFICATES.md. *)

module Sexp = Cert_sexp
module Codec = Cert_codec
module Store = Cert_store

val version : string
(** Engine version baked into every key and certificate.  Bump it
    whenever the semantics of any producer changes: old entries stop
    matching any key and [gc] collects them. *)

type membership = {
  op_name : string;  (** one-round operator (must identify semantics) *)
  task_name : string;
  sigma : Simplex.t;
  tau : Simplex.t;
  member : bool;
  witness : Simplicial_map.t option;
      (** the one-round decision map of the local task [Π_{τ,σ}];
          [None] for zero-round memberships (τ ∈ Δ(σ)) and
          non-members *)
}

type enumeration = {
  op_name : string;
  task_name : string;
  sigma : Simplex.t;
  members : (Simplex.t * Simplicial_map.t option) list;
      (** every τ ∈ Δ'(σ), with its witness when one round is needed *)
}

type solution = {
  model_name : string;
  task_name : string;
  rounds : int;
  inputs : Simplex.t list;
  verdict : bool;
  map : Simplicial_map.t option;  (** the decision map when solvable *)
}

type fixed_point = {
  op_name : string;
  task_name : string;
  per_sigma : (Simplex.t * Simplex.t list) list;
      (** σ ↦ facets of Δ'(σ); a fixed point iff each equals Δ(σ) *)
}

type obstruction =
  | Disconnected of { complex : Complex.t; u : Vertex.t; v : Vertex.t }
      (** [u] and [v] lie in distinct components of the 1-skeleton —
          the connectivity obstruction behind the Corollary 1 /
          FLP-style arguments *)
  | Sperner of { complex : Complex.t; seed : int; samples : int }
      (** sampled carrier-respecting labelings all have an odd rainbow
          count — the Sperner obstruction on which the closure
          technique has no grip (E14) *)

type unsolvable = {
  task_name : string;
  rounds : int;
  reason : obstruction;
}

type equivalence = {
  lhs : string;  (** canonical algebra rendering, [lhs < rhs] *)
  rhs : string;
  n : int;  (** instance bound of the battery (Equiv.decide) *)
  equivalent : bool;
  probes : (string * string * string) list;
      (** (probe label, lhs fingerprint, rhs fingerprint); equivalent
          iff every probe's fingerprints agree *)
}

type atlas_cell = {
  cell_op : string;  (** operator name, registry-resolvable *)
  cell_task : string;  (** canonical task name, registry-resolvable *)
  cell_keys : string list;
      (** the [Q_delta] store key of every input simplex of the task,
          in [Task.input_simplices] order *)
}

type atlas = {
  atlas_name : string;
  atlas_cells : atlas_cell list;
      (** the coverage manifest of a precomputed closure atlas
          ([speedup atlas build], docs/FLEET.md) *)
}

type t =
  | Membership of membership
  | Enumeration of enumeration
  | Solution of solution
  | Fixed_point of fixed_point
  | Unsolvable of unsolvable
  | Equivalence of equivalence
  | Atlas of atlas

val kind_name : t -> string
val subject : t -> string
(** Short human-readable description (task, operator, σ). *)

val encode : t -> Cert_sexp.t
val decode : Cert_sexp.t -> (t, string) result
(** Rejects unknown layouts and any version other than [version]. *)

val equal : t -> t -> bool

(** {1 Content-addressed keys}

    A certificate is stored under the digest of its {e query} — the
    question it answers, not the answer — so a consumer can compute the
    key before knowing the result.  The engine [version] is part of
    every key. *)

type query =
  | Q_delta of { op_name : string; task_name : string; sigma : Simplex.t }
  | Q_member of {
      op_name : string;
      task_name : string;
      sigma : Simplex.t;
      tau : Simplex.t;
    }
  | Q_solve of {
      model_name : string;
      task_name : string;
      rounds : int;
      inputs : Simplex.t list;
    }
  | Q_fixed_point of {
      op_name : string;
      task_name : string;
      sigmas : Simplex.t list;
    }
  | Q_unsolvable of { task_name : string; rounds : int }
  | Q_equiv of { lhs : string; rhs : string; n : int }
  | Q_atlas of { atlas_name : string }

val query_of : t -> query
val query_key : query -> string
val key : t -> string
(** [key c = query_key (query_of c)]. *)

(** {1 Verification} *)

type env = {
  task_of_name : string -> Task.t option;
  facets_of_op : string -> (Simplex.t -> Simplex.t list) option;
  protocol_of_model : string -> (Simplex.t -> int -> Complex.t) option;
}
(** How the checker resolves the names a certificate refers to.
    [Cert_registry.env] reconstructs the repository's standard tasks
    and operators from their names; a computation holding the live
    task/operator supplies them directly. *)

type error =
  | Unsupported of string
      (** the environment cannot resolve a name — not evidence of
          tampering *)
  | Invalid of string  (** the certificate fails its checks *)

val error_message : error -> string

val verify : env -> t -> (unit, error) result
(** Validates the certificate against the task/model it names,
    {e without} rerunning any search — only simplicial-map
    well-formedness, chromaticity, carrier containment, and
    Δ-membership checks. *)

(** {1 Store read-through}

    The one path by which the engine reads its own results back from
    the store ([Cert.Store]).  See docs/CERTIFICATES.md. *)

val load_verified : env:env -> query -> (t -> 'a option) -> 'a option
(** [load_verified ~env q project] loads the entry stored under
    [query_key q] and accepts it only if it decodes, its own {!key} is
    [query_key q] (so a valid certificate of another query misfiled
    under this key is rejected), it passes {!verify} against [env],
    and [project] maps it to an answer.  Any other entry is
    quarantined ({!Cert_store.quarantine}, counted as corrupt) and
    reported as a miss. *)

val cached :
  env:env -> query -> (t -> 'a option) -> compute:(unit -> 'a) ->
  certify:('a -> t option) -> 'a
(** [cached ~env q project ~compute ~certify]: the answer of a
    {!load_verified} hit, otherwise [compute ()], persisted under
    [query_key q] as [certify]'s certificate — [None] persists nothing
    (an undecided solve, a negative fixed point).  Just [compute ()]
    when the store is disabled. *)
