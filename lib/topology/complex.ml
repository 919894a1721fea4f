type t = { facets : Simplex.Set.t }
(* Invariant: no facet is a face of another. *)

let empty = { facets = Simplex.Set.empty }

let maximalize simplices =
  let sorted =
    List.sort (fun a b -> Int.compare (Simplex.card b) (Simplex.card a)) simplices
  in
  List.fold_left
    (fun acc s ->
      if Simplex.Set.exists (fun f -> Simplex.subset s f) acc then acc
      else Simplex.Set.add s acc)
    Simplex.Set.empty sorted

let of_facets l = { facets = maximalize l }
let of_simplex s = { facets = Simplex.Set.singleton s }
let facets c = Simplex.Set.elements c.facets
let facet_set c = c.facets
let is_empty c = Simplex.Set.is_empty c.facets
let mem s c = Simplex.Set.exists (fun f -> Simplex.subset s f) c.facets
let mem_vertex v c = mem (Simplex.singleton v) c

let vertices c =
  Simplex.Set.fold
    (fun f acc -> List.fold_left (fun acc v -> Vertex.Set.add v acc) acc (Simplex.vertices f))
    c.facets Vertex.Set.empty
  |> Vertex.Set.elements

(* Both sit inside the per-τ hot loop of closure enumeration (via
   [Task.delta_candidates] and the solver's candidate registration):
   fold straight into sets instead of materializing all vertices and
   rescanning, and skip the quadratic membership test on the
   accumulator.  Output order is unchanged (ascending set order). *)
let vertices_of_color i c =
  Simplex.Set.fold
    (fun f acc ->
      List.fold_left
        (fun acc v -> if Vertex.color v = i then Vertex.Set.add v acc else acc)
        acc (Simplex.vertices f))
    c.facets Vertex.Set.empty
  |> Vertex.Set.elements

module Int_set = Set.Make (Int)

let colors c =
  Simplex.Set.fold
    (fun f acc -> List.fold_left (fun acc i -> Int_set.add i acc) acc (Simplex.ids f))
    c.facets Int_set.empty
  |> Int_set.elements

let all_simplices c =
  Simplex.Set.fold
    (fun f acc ->
      List.fold_left (fun acc s -> Simplex.Set.add s acc) acc (Simplex.faces f))
    c.facets Simplex.Set.empty
  |> Simplex.Set.elements

(* Whether the color-sorted vertex list carries exactly the sorted,
   deduplicated colors [sel]: one walk, no allocation. *)
let rec colored_exactly sel vs =
  match (sel, vs) with
  | [], [] -> true
  | i :: sel, v :: vs -> Vertex.color v = i && colored_exactly sel vs
  | _ -> false

(* The solver asks for the table of a facet's color set on a Δ image
   whose facets all carry that same set (a projected Δ(σ) onto the
   colors of a protocol facet): there every facet is its own
   projection, so the facet list is the answer, in the same order. *)
let simplices_with_ids sel c =
  let sel = List.sort_uniq Int.compare sel in
  if Simplex.Set.for_all (fun f -> colored_exactly sel (Simplex.vertices f)) c.facets
  then facets c
  else
    Simplex.Set.fold
      (fun f acc ->
        if List.for_all (fun i -> Simplex.mem_color i f) sel then
          Simplex.Set.add (Simplex.proj sel f) acc
        else acc)
      c.facets Simplex.Set.empty
    |> Simplex.Set.elements

let dim c =
  if is_empty c then invalid_arg "Complex.dim: empty complex";
  Simplex.Set.fold (fun f acc -> max acc (Simplex.dim f)) c.facets (-1)

let is_pure c =
  (not (is_empty c))
  &&
  let d = dim c in
  Simplex.Set.for_all (fun f -> Simplex.dim f = d) c.facets

let facet_count c = Simplex.Set.cardinal c.facets
let vertex_count c = List.length (vertices c)
let simplex_count c = List.length (all_simplices c)
let union a b = of_facets (Simplex.Set.elements a.facets @ Simplex.Set.elements b.facets)

let proj sel c =
  let restricted =
    Simplex.Set.fold
      (fun f acc ->
        let kept = List.filter (fun v -> List.mem (Vertex.color v) sel) (Simplex.vertices f) in
        match kept with [] -> acc | vs -> Simplex.of_vertices vs :: acc)
      c.facets []
  in
  of_facets restricted

let skeleton k c =
  let pieces =
    Simplex.Set.fold
      (fun f acc ->
        if Simplex.dim f <= k then f :: acc
        else List.filter (fun s -> Simplex.dim s <= k) (Simplex.faces f) @ acc)
      c.facets []
  in
  of_facets pieces

let map g c =
  let image =
    Simplex.Set.fold
      (fun f acc -> Simplex.of_vertices (List.map g (Simplex.vertices f)) :: acc)
      c.facets []
  in
  of_facets image

let equal a b = Simplex.Set.equal a.facets b.facets
let subcomplex a b = Simplex.Set.for_all (fun f -> mem f b) a.facets
let compare a b = Simplex.Set.compare a.facets b.facets

let pp ppf c =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Simplex.pp)
    (facets c)

let pp_stats ppf c =
  if is_empty c then Format.pp_print_string ppf "empty"
  else
    Format.fprintf ppf "%d vertices, %d facets, dim %d" (vertex_count c)
      (facet_count c) (dim c)
