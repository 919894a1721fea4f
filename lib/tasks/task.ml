type t = {
  name : string;
  arity : int;
  inputs : Complex.t Lazy.t;
  outputs : Complex.t Lazy.t;
  delta : Simplex.t -> Complex.t;
  delta_proj : Simplex.t -> int list -> Complex.t;
}

module Proj_tbl = Hashtbl.Make (struct
  type t = Simplex.t * int list

  let equal (s, ids) (s', ids') = Simplex.equal s s' && List.equal Int.equal ids ids'
  let hash (s, ids) = List.fold_left (fun h i -> (31 * h) + i) (Simplex.hash s) ids
end)

(* Δ is a pure function of σ, and interned simplices make σ an O(1)
   hash key, so every task memoizes its Δ images: closure enumeration,
   local-task validation and the solver request the same handful of
   Δ(σ) complexes thousands of times per run.  The projections of each
   image onto a color set are memoized next to it: every local task
   Π_{τ,σ} of one σ reads its face specifications from them, so the
   candidates τ of σ share one projected complex per color set instead
   of each re-projecting Δ(σ).  Both tables are guarded by a per-task
   mutex with the compute outside the lock — Δ is pure, so a racing
   double-compute is benign and either insert wins.  The lock nesting
   is strictly task → sub-task (algebra compositions call the
   component tasks' deltas), never cyclic. *)
let make ~name ~arity ~inputs ~outputs ~delta =
  let lock = Mutex.create () in
  let memoized cache find add compute key =
    match Mutex.protect lock (fun () -> find cache key) with
    | Some c -> c
    | None ->
        let c = compute key in
        Mutex.protect lock (fun () ->
            match find cache key with
            | Some c -> c
            | None ->
                add cache key c;
                c)
  in
  let delta =
    memoized (Simplex.Tbl.create 16) Simplex.Tbl.find_opt Simplex.Tbl.add delta
  in
  (* When [ids] covers every color of Δ(σ) the projection is the
     identity, and Δ(σ) itself is returned. *)
  let project (sigma, ids) =
    let d = delta sigma in
    if List.for_all (fun i -> List.mem i ids) (Complex.colors d) then d
    else Complex.proj ids d
  in
  let proj = memoized (Proj_tbl.create 16) Proj_tbl.find_opt Proj_tbl.add project in
  let delta_proj sigma ids = proj (sigma, List.sort_uniq Int.compare ids) in
  { name; arity; inputs; outputs; delta; delta_proj }

let inputs t = Lazy.force t.inputs
let outputs t = Lazy.force t.outputs
let delta t sigma = t.delta sigma
let delta_proj t sigma ids = t.delta_proj sigma ids
let input_simplices t = Complex.all_simplices (inputs t)
let restrict_inputs t c = { t with inputs = lazy c }
let with_name name t = { t with name }

let delta_candidates t sigma color =
  Complex.vertices_of_color color (t.delta sigma)

let delta_equal_on a b simplices =
  List.for_all (fun s -> Complex.equal (a.delta s) (b.delta s)) simplices

let delta_subset_on a b simplices =
  List.for_all (fun s -> Complex.subcomplex (a.delta s) (b.delta s)) simplices

let carrier_map_on t simplices =
  let all =
    List.sort_uniq Simplex.compare (List.concat_map Simplex.faces simplices)
  in
  List.for_all
    (fun sigma ->
      List.for_all
        (fun sigma' -> Complex.subcomplex (t.delta sigma') (t.delta sigma))
        (Simplex.faces sigma))
    all

let chromatic_output_sets t sigma =
  let rec combos = function
    | [] -> [ [] ]
    | i :: rest ->
        let tails = combos rest in
        List.concat_map
          (fun v -> List.map (fun tl -> v :: tl) tails)
          (delta_candidates t sigma i)
  in
  List.map Simplex.of_vertices (combos (Simplex.ids sigma))
