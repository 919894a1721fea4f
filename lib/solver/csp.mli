(** A table-constraint CSP solver (generalized arc consistency +
    backtracking with trailing), tailored to simplicial-map search.
    Domains and tables are bitsets: a revision ANDs, over the scope,
    the ORed supports of each variable's alive values, then drops the
    values whose support misses the live tuples.

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

type table
(** A tuple table compiled into support bitsets: for each (position,
    value), the set of tuples using that value, in 63-bit words.  It
    is immutable, so one compiled table may back any number of
    constraints, in any number of problems and domains. *)

val compile : arity:int -> int array array -> table
(** Each tuple gives one allowed combination of candidate indices.
    An empty tuple array makes every constraint on the table
    unsatisfiable.
    @raise Invalid_argument ["Csp.compile: tuple arity mismatch"] or
    ["Csp.compile: negative tuple value"]. *)

val tuples : table -> int array array
(** The compiled tuples, in their original order. *)

val add_table : t -> scope:int array -> table -> unit
(** Constrain the variables of [scope] (aligned with the table's
    positions) to one of the table's tuples.
    @raise Invalid_argument ["Csp.add_table: tuple arity mismatch"],
    ["Csp.add_table: scope variable out of range"], or
    ["Csp.add_table: tuple value out of range"] when a tuple value is
    not a candidate of its scope variable. *)

val add_table_constraint : t -> scope:int array -> tuples:int array array -> unit
(** [add_table] of the compiled [tuples], with the same checks under
    the name ["Csp.add_table_constraint"]. *)

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

type totals = { solves : int; nodes_searched : int }
(** Over the whole process: {!solve} calls, and search nodes they
    explored. *)

val totals : unit -> totals
