type kind =
  | Plain of Model.t
  | Boxed of Black_box.t * Augmented.alpha * int
  | Custom

type t = { name : string; kind : kind; facets : Simplex.t -> Simplex.t list }

let name op = op.name
let facets op = op.facets

let plain model =
  {
    name = Model.name model;
    kind = Plain model;
    facets = Model.one_round_facets model;
  }

(* Closure results are memoized by operator name (see Closure.delta);
   two operators with the same name but different semantics would
   poison the cache.  Plain models have a canonical 1:1 name, but an
   augmented operator's α is an arbitrary function, so every created
   instance gets a unique name; reuse the same instance to benefit
   from memoization. *)
let fresh_id =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1 + 1

let augmented ~box ~alpha ~round =
  {
    name = Printf.sprintf "immediate+%s#%d" box.Black_box.name (fresh_id ());
    kind = Boxed (box, alpha, round);
    facets = Augmented.one_round_facets ~box ~alpha ~round;
  }

let test_and_set =
  (* The single global instance: a stable name is safe and keeps its
     memo entries shared across the whole session. *)
  let op =
    augmented ~box:Black_box.test_and_set
      ~alpha:(Augmented.alpha_const Value.Unit)
      ~round:1
  in
  { op with name = "immediate+test&set" }

let bin_consensus_beta beta =
  let op =
    augmented ~box:Black_box.bin_consensus ~alpha:(Augmented.alpha_of_beta beta)
      ~round:1
  in
  { op with name = Printf.sprintf "immediate+bin-consensus(beta#%d)" (fresh_id ()) }

let persistent op = not (String.contains op.name '#')

let custom ~name facets = { name; kind = Custom; facets }
let k_concurrency k =
  custom ~name:(Printf.sprintf "%d-concurrency" k) (Affine.k_concurrency k)

let d_solo d = custom ~name:(Printf.sprintf "%d-solo" d) (Affine.d_solo d)

(* Canonical algebra renderings contain no '#', so these operators are
   persistent: the name re-parses to the same semantics in any
   session (Cert_registry resolves it through Algebra.parse). *)
let algebra term = custom ~name:(Algebra.to_string term) (Algebra.facets term)

(* Name-independent: fresh-named instances of one box with equal box
   inputs share their layouts.  The box outcomes read the α values, so
   they are part of the key. *)
let layout_key op tau =
  match op.kind with
  | Plain model -> Some (Model.name model, [])
  | Boxed (box, alpha, round) ->
      Some
        ( box.Black_box.name,
          List.map
            (fun i -> alpha ~round i (Simplex.value i tau))
            (Simplex.ids tau) )
  | Custom -> None

let complex op sigma = Complex.of_facets (op.facets sigma)

let solo_vertex op sigma i =
  match op.kind with
  | Plain _ | Custom -> Model.solo_vertex sigma i
  | Boxed (box, alpha, round) -> Augmented.solo_vertex ~box ~alpha ~round sigma i
