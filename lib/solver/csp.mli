(** A table-constraint CSP solver (generalized arc consistency +
    backtracking with trailing), tailored to simplicial-map search.

    Variables are the vertices of a protocol complex; the domain of a
    variable is a set of output vertices of the same color; every
    constraint is a table constraint "the tuple of images of this facet
    must be one of these simplices". *)

type t

type result = Sat of int array | Unsat | Unknown
(** [Sat a] maps each variable to the index of its chosen candidate;
    [Unknown] is returned only when a node limit is hit. *)

val create : num_vars:int -> candidate_counts:int array -> t
(** [candidate_counts.(v)] is the number of candidate values of
    variable [v]; initial domains are full. *)

val add_table_constraint : t -> scope:int array -> tuples:int array array -> unit
(** [scope] lists variables; each tuple gives one allowed combination
    of candidate indices, aligned with [scope].  An empty tuple list
    makes the problem unsatisfiable.  The solver only reads [tuples] and
    keeps a reference to it, so one table may be shared by several
    constraints; it must not be mutated afterwards. *)

val pin : t -> var:int -> value:int -> unit
(** Restrict a variable's domain to a single candidate. *)

exception Interrupted
(** Raised by {!solve} when its [should_stop] callback returns [true]
    — the cooperative cancellation hook used by per-request deadlines
    in the query daemon.  The solver state is restored before the
    exception escapes, so the object remains reusable. *)

val solve : ?node_limit:int -> ?should_stop:(unit -> bool) -> t -> result
(** Runs propagation and search.  The solver object can be reused
    (domains are restored after solving).  [should_stop] (default
    [fun () -> false]) is polled once up front and then every 256
    search nodes; when it returns [true], {!Interrupted} is raised
    after restoring the solver state.  No result — not even a partial
    one — is produced on interruption. *)

type stats = { nodes : int; revisions : int }
(** Search nodes explored and constraint revisions performed by the
    most recent [solve] call. *)

val last_stats : t -> stats
(** All-zero before the first [solve]. *)
