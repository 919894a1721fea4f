(* QCheck generators shared across the property-based suites. *)

open QCheck2

let small_frac : Frac.t Gen.t =
  Gen.map2
    (fun n d -> Frac.make n d)
    (Gen.int_range (-24) 24)
    (Gen.int_range 1 12)

let grid_frac ~m : Frac.t Gen.t =
  Gen.map (fun k -> Frac.make k m) (Gen.int_range 0 m)

let value : Value.t Gen.t =
  Gen.oneof
    [
      Gen.return Value.Unit;
      Gen.map (fun b -> Value.Bool b) Gen.bool;
      Gen.map (fun n -> Value.Int n) (Gen.int_range (-50) 50);
      Gen.map (fun q -> Value.Frac q) small_frac;
    ]

let vertex ?(max_color = 5) () : Vertex.t Gen.t =
  Gen.map2 Vertex.make (Gen.int_range 1 max_color) value

(* A chromatic simplex over colors drawn from 1..max_color. *)
let simplex ?(max_color = 5) () : Simplex.t Gen.t =
  let open Gen in
  int_range 1 max_color >>= fun card ->
  let rec pick_colors acc k =
    if k = 0 then return acc
    else
      int_range 1 max_color >>= fun c ->
      if List.mem c acc then pick_colors acc k
      else pick_colors (c :: acc) (k - 1)
  in
  pick_colors [] (min card max_color) >>= fun colors ->
  flatten_l (List.map (fun c -> map (fun v -> (c, v)) value) colors)
  >|= Simplex.of_list

(* A small complex: a few facets over a bounded color set. *)
let complex ?(max_color = 4) ?(max_facets = 4) () : Complex.t Gen.t =
  let open Gen in
  int_range 1 max_facets >>= fun k ->
  list_size (return k) (simplex ~max_color ()) >|= Complex.of_facets

(* A vertex map with distinct domain vertices (one per color of a
   generated simplex); images are arbitrary. *)
let simplicial_map ?(max_color = 5) () : Simplicial_map.t Gen.t =
  let open Gen in
  simplex ~max_color () >>= fun dom ->
  flatten_l
    (List.map
       (fun v -> map (fun w -> (v, w)) (vertex ~max_color ()))
       (Simplex.vertices dom))
  >|= Simplicial_map.of_assoc

let ordered_partition ~ids : Ordered_partition.t Gen.t =
  let parts = Ordered_partition.enumerate ids in
  Gen.oneofl parts

let frac_print q = Frac.to_string q
let simplex_print s = Simplex.to_string s

(* ---- random 2-process tasks ---- *)

let input_values = [ Value.Int 0; Value.Int 1 ]
let output_values = [ Value.Int 0; Value.Int 1; Value.Int 2 ]

(* A random task: for each input simplex, a random non-empty set of
   chromatic output assignments over its colors.  Solo inputs keep at
   least one output; nothing else is assumed (Δ need not be a carrier
   map — the paper's Definition 2 does not require it). *)
let random_task seed =
  let rng = Random.State.make [| seed |] in
  let inputs = Combinatorics.full_input_complex 2 input_values in
  let all_inputs = Complex.all_simplices inputs in
  let table = Hashtbl.create 16 in
  List.iter
    (fun sigma ->
      let candidates = Combinatorics.assignments (Simplex.ids sigma) output_values in
      let chosen = List.filter (fun _ -> Random.State.bool rng) candidates in
      let chosen = if chosen = [] then [ List.hd candidates ] else chosen in
      Hashtbl.replace table (Simplex.to_string sigma) (Complex.of_facets chosen))
    all_inputs;
  Task.make
    ~name:(Printf.sprintf "random-task-%d" seed)
    ~arity:2 ~inputs:(lazy inputs)
    ~outputs:(lazy (Combinatorics.full_input_complex 2 output_values))
    ~delta:(fun sigma ->
      match Hashtbl.find_opt table (Simplex.to_string sigma) with
      | Some c -> c
      | None -> invalid_arg "random task: unknown input")
