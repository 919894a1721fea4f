(* Rule scoping and the repo-specific vocabulary of speedup-lint.

   Classification is by path (as seen from the repository root): which
   libraries are reachable from Pool callbacks and therefore subject to
   the shared-mutable-state rule, which layer owns the dedicated
   comparator types, and which trees are exempt from the
   nondeterminism ban. *)

(* Libraries whose code runs inside lib/parallel Pool callbacks
   (closure enumeration, solver fan-out, adversary checks, certificate
   store, the query daemon's worker domains): top-level mutable state
   there must be Atomic, mutex-guarded, or explicitly allowlisted
   (R1), and every such cell's locksets must be consistent (R7).

   This list is no longer trusted: the linter *infers* the
   pool-reachable set from the whole-program call graph
   (lint_callgraph) and `dune build @lint` fails on drift in either
   direction, so the list here is exactly the inferred directory
   projection.  `frac`, `tasks`, `algorithms`, `core` and
   `experiments` entered when inference traced protocol/Δ closures
   flowing through Solvability.decide / Adversary.check_task /
   Round_op into Pool callbacks — paths the hand-maintained list had
   missed.  Regenerate the set with:
   main.exe --reachability lib bin bench tools  (from
   _build/default). *)
let parallel_reachable =
  [
    "algorithms"; "cert"; "closure"; "core"; "experiments"; "fleet"; "frac";
    "models"; "models/algebra"; "parallel"; "runtime"; "server"; "solver";
    "tasks"; "topology";
  ]

(* Libraries defining the dedicated comparator types: inside them the
   stricter R4 comparator-hygiene checks apply. *)
let dedicated_layer = [ "topology"; "frac" ]

(* Config-level R5 exemptions: identifiers from [banned_idents] that a
   specific library may use without per-site [@lint.allow]
   attributes.  lib/server needs wall-clock reads for per-request
   deadlines, queue/wall latency accounting, and client retry
   back-off; lib/fleet needs them for peer-health backoff windows and
   remaining-deadline propagation through the router.  Everything the
   clock feeds stays outside reproduced results (replies carry no
   timestamps), so determinism of the engine's answers is unaffected.
   Documented in docs/LINT.md. *)
let r5_allowlist =
  [
    ("server", [ [ "Unix"; "gettimeofday" ] ]);
    ("fleet", [ [ "Unix"; "gettimeofday" ] ]);
  ]

type scope = {
  label : string;
  r1 : bool;  (* shared-mutable-state applies *)
  r4_dedicated : bool;  (* dedicated-comparator layer: strict R4 *)
  r5 : bool;  (* banned-nondeterminism applies (lib/ only) *)
  r5_allowed : string list list;  (* banned idents exempted here *)
  r6 : bool;  (* structural ops on interned types forbidden *)
}

(* Every scoping table keyed by library name.  The nested-sub-library
   adjustment in [classify] consults all of them, so a nested directory
   listed in *any* table (not just [parallel_reachable]) gets its own
   scope label; an unlisted nested directory inherits its parent's. *)
let scoped_names () =
  parallel_reachable @ dedicated_layer @ List.map fst r5_allowlist

let classify path =
  match String.split_on_char '/' path with
  | "lib" :: name :: rest ->
      (* Nested sub-libraries (lib/models/algebra/…) are scoped under
         their full directory name so any scoping table can list
         them independently of the parent tree. *)
      let name =
        match rest with
        | sub :: _ :: _ when List.mem (name ^ "/" ^ sub) (scoped_names ()) ->
            name ^ "/" ^ sub
        | _ -> name
      in
      {
        label = "lib/" ^ name;
        r1 = List.mem name parallel_reachable;
        r4_dedicated = List.mem name dedicated_layer;
        r5 = true;
        r5_allowed =
          (match List.assoc_opt name r5_allowlist with
          | Some idents -> idents
          | None -> []);
        (* Inside lib/topology the interned representation is the
           point: Value defines its own structural walk.  Everywhere
           else, structural ops on interned values are R6 errors. *)
        r6 = name <> "topology";
      }
  | "bench" :: _ ->
      { label = "bench"; r1 = false; r4_dedicated = false; r5 = false;
        r5_allowed = []; r6 = true }
  | "bin" :: _ ->
      { label = "bin"; r1 = false; r4_dedicated = false; r5 = false;
        r5_allowed = []; r6 = true }
  | "tools" :: _ ->
      { label = "tools"; r1 = false; r4_dedicated = false; r5 = false;
        r5_allowed = []; r6 = true }
  | _ ->
      { label = "other"; r1 = false; r4_dedicated = false; r5 = false;
        r5_allowed = []; r6 = false }

(* Types with a dedicated comparator (R4), as resolved, normalized
   type paths: a polymorphic operation whose argument *type* mentions
   one of these fires however the value was reached. *)
let dedicated_type_names = [ "Simplex.t"; "Vertex.t"; "Complex.t"; "Frac.t" ]

(* Hash-consed types (R6): interned nodes carry process-local ids, so
   [Stdlib.compare] orders them nondeterministically and [Hashtbl.hash]
   folds the ids.  Vertex and Simplex are interned too, but they are
   already dedicated types, so R4 flags the same operations there; R6
   covers the types R4 does not.  Applies outside lib/topology (scope
   field [r6]). *)
let interned_type_names = [ "Value.t"; "Algebra.t" ]

(* R1: constructors of shared mutable state banned at top level.
   [Domain.DLS.new_key] is listed because a DLS key at top level is a
   per-domain cache by construction: harmless for races, but a silent
   coherence hazard (stale reads across domains) unless the cache is
   deliberately designed for it — so each one must carry a reasoned
   [@lint.allow] like any other top-level mutable binding. *)
let mutable_creators =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Buffer"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "create_float" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Domain"; "DLS"; "new_key" ];
  ]

(* R5: ambient nondeterminism. [Random.State] with a caller-supplied
   seed is deterministic and allowed; everything else in [Random] reads
   or mutates the ambient generator. *)
let banned_idents =
  [
    [ "Sys"; "time" ];
    [ "Unix"; "gettimeofday" ];
    [ "Unix"; "time" ];
    [ "Printexc"; "get_callstack" ];
    [ "Random"; "State"; "make_self_init" ];
  ]

(* The vocabulary below is matched against resolved, normalized paths
   (Lint_cmt.path_in): "Stdlib." is stripped, and a single-component
   entry only matches Stdlib's own operator, never a local or opened
   one of the same name. *)

(* Polymorphic operations whose application at a dedicated (R4) or
   interned (R6) type is an error. *)
let poly_compare_ops =
  [
    [ "compare" ]; [ "Hashtbl"; "hash" ]; [ "Hashtbl"; "seeded_hash" ];
    [ "=" ]; [ "<>" ]; [ "<" ]; [ ">" ]; [ "<=" ]; [ ">=" ]; [ "min" ];
    [ "max" ];
  ]

(* Bare polymorphic comparators: passing one of these as a function
   argument inside the dedicated layer is an error (R4); a comparator
   mentioning one is not keyed, so it does not sanitize a sort (R2). *)
let poly_comparator_idents =
  [ [ "compare" ]; [ "Poly"; "compare" ]; [ "Hashtbl"; "hash" ]; [ "=" ] ]

(* Polymorphic compare/hash that a comparator lambda in the dedicated
   layer may apply to simple scalars only (R4). *)
let lambda_compare_ops = [ [ "compare" ]; [ "Hashtbl"; "hash" ] ]

(* Arithmetic that keeps a "simple scalar" simple inside such a
   lambda. *)
let arithmetic_ops =
  [ "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "abs"; "~-" ]

(* Sort functions recognized as R2 sanitizers. *)
let sorters =
  [
    [ "List"; "sort" ]; [ "List"; "sort_uniq" ]; [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ];
  ]

(* Commutative, associative Stdlib operators: a [Hashtbl.fold] whose
   body only combines the accumulator through one of these is
   insensitive to iteration order. *)
let commutative_ops =
  [ "+"; "+."; "*"; "*."; "max"; "min"; "land"; "lor"; "lxor"; "&&"; "||" ]

(* ---- whole-program analyses (lint_callgraph / lint_lockset) ---- *)

(* Functions whose callback arguments execute on other domains.  The
   [Pool.*] entries match on a dot-boundary suffix of the resolved
   path, so the real [lib/parallel] Pool and a fixture-local
   [module Pool = struct … end] are both recognized; [Domain.spawn]
   matches the normalized stdlib path exactly.  These seed the
   pool-reachability inference (lint_callgraph) and mark detachment
   points for the R7 lockset analysis (code inside their callback
   arguments runs without the caller's locks). *)
let pool_callback_receivers =
  [ "Pool.map"; "Pool.filter_map"; "Pool.filter"; "Pool.for_all" ]

let spawn_receivers = [ "Domain.spawn" ]
