(* Tests for facet-based chromatic complexes. *)

let complex = Alcotest.testable Complex.pp Complex.equal

let tri =
  Simplex.of_list [ (1, Value.Int 1); (2, Value.Int 2); (3, Value.Int 3) ]

let edge12 = Simplex.proj [ 1; 2 ] tri
let edge23 = Simplex.proj [ 2; 3 ] tri
let v1 = Simplex.proj [ 1 ] tri

let test_maximalize () =
  (* Non-maximal simplices are absorbed by their cofaces. *)
  let c = Complex.of_facets [ edge12; tri; v1 ] in
  Alcotest.(check int) "single facet" 1 (Complex.facet_count c);
  Alcotest.(check complex) "same as of_simplex" (Complex.of_simplex tri) c

let test_membership () =
  let c = Complex.of_simplex tri in
  Alcotest.(check bool) "facet in" true (Complex.mem tri c);
  Alcotest.(check bool) "face in" true (Complex.mem edge23 c);
  Alcotest.(check bool) "vertex in" true (Complex.mem v1 c);
  let foreign = Simplex.of_list [ (1, Value.Int 99) ] in
  Alcotest.(check bool) "foreign out" false (Complex.mem foreign c);
  Alcotest.(check bool) "mem_vertex" true
    (Complex.mem_vertex (Vertex.make 2 (Value.Int 2)) c)

let test_counts () =
  let c = Complex.of_simplex tri in
  Alcotest.(check int) "vertices" 3 (Complex.vertex_count c);
  Alcotest.(check int) "simplices 2^3-1" 7 (Complex.simplex_count c);
  Alcotest.(check int) "dim" 2 (Complex.dim c);
  Alcotest.(check bool) "pure" true (Complex.is_pure c);
  let mixed = Complex.of_facets [ edge12; Simplex.of_list [ (4, Value.Int 4) ] ] in
  Alcotest.(check bool) "not pure" false (Complex.is_pure mixed);
  Alcotest.(check bool) "empty" true (Complex.is_empty Complex.empty);
  Alcotest.check_raises "dim of empty" (Invalid_argument "Complex.dim: empty complex")
    (fun () -> ignore (Complex.dim Complex.empty))

let test_union_proj_skeleton () =
  let c = Complex.union (Complex.of_simplex edge12) (Complex.of_simplex edge23) in
  Alcotest.(check int) "union facets" 2 (Complex.facet_count c);
  let p = Complex.proj [ 1; 2 ] (Complex.of_simplex tri) in
  Alcotest.(check complex) "proj induces face" (Complex.of_simplex edge12) p;
  let sk = Complex.skeleton 1 (Complex.of_simplex tri) in
  Alcotest.(check int) "1-skeleton facets = 3 edges" 3 (Complex.facet_count sk);
  Alcotest.(check int) "1-skeleton dim" 1 (Complex.dim sk);
  Alcotest.(check complex) "skeleton above dim = id"
    (Complex.of_simplex tri)
    (Complex.skeleton 5 (Complex.of_simplex tri))

let test_simplices_with_ids () =
  let c = Complex.union (Complex.of_simplex tri)
      (Complex.of_simplex (Simplex.of_list [ (1, Value.Int 7); (2, Value.Int 8) ]))
  in
  let pairs = Complex.simplices_with_ids [ 1; 2 ] c in
  Alcotest.(check int) "two 12-colored simplices" 2 (List.length pairs);
  let all3 = Complex.simplices_with_ids [ 1; 2; 3 ] c in
  Alcotest.(check int) "one 123-colored simplex" 1 (List.length all3)

let test_colors_and_vertices_of_color () =
  let c = Complex.of_simplex tri in
  Alcotest.(check (list int)) "colors" [ 1; 2; 3 ] (Complex.colors c);
  Alcotest.(check int) "one vertex of color 2" 1
    (List.length (Complex.vertices_of_color 2 c))

let test_map () =
  let f v = Vertex.make (Vertex.color v) (Value.Int 0) in
  let image = Complex.map f (Complex.of_simplex tri) in
  Alcotest.(check int) "image single facet" 1 (Complex.facet_count image);
  Alcotest.(check int) "image vertices collapse per color" 3
    (Complex.vertex_count image)

let test_subcomplex () =
  let c = Complex.of_simplex tri in
  Alcotest.(check bool) "face complex included" true
    (Complex.subcomplex (Complex.of_simplex edge12) c);
  Alcotest.(check bool) "not reverse" false
    (Complex.subcomplex c (Complex.of_simplex edge12));
  Alcotest.(check bool) "empty included" true (Complex.subcomplex Complex.empty c)

let prop_mem_downward_closed =
  QCheck2.Test.make ~name:"membership downward closed" ~count:150
    (Gen.complex ()) (fun c ->
      List.for_all
        (fun facet ->
          List.for_all (fun f -> Complex.mem f c) (Simplex.faces facet))
        (Complex.facets c))

let prop_facets_maximal =
  QCheck2.Test.make ~name:"no facet contains another" ~count:150
    (Gen.complex ()) (fun c ->
      let fs = Complex.facets c in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> Simplex.equal a b || not (Simplex.subset a b))
            fs)
        fs)

let prop_union_monotone =
  QCheck2.Test.make ~name:"union contains both" ~count:150
    QCheck2.Gen.(pair (Gen.complex ()) (Gen.complex ()))
    (fun (a, b) ->
      let u = Complex.union a b in
      Complex.subcomplex a u && Complex.subcomplex b u)

let prop_proj_subcomplex =
  QCheck2.Test.make ~name:"projection is a subcomplex" ~count:150
    (Gen.complex ()) (fun c ->
      Complex.subcomplex (Complex.proj [ 1; 2 ] c) c)

(* [simplices_with_ids] against its definition: project every facet
   that carries all of [sel] and collect the distinct results in set
   order.  The generated complexes mix facets carrying exactly a color
   set [cs] (the fast path when [sel = cs] and nothing else is added)
   with random facets (mixed color sets, non-pure), and [sel] is [cs]
   itself, a strict subset, a strict superset or an arbitrary set. *)
let with_ids_reference sel c =
  List.fold_left
    (fun acc f ->
      if List.for_all (fun i -> Simplex.mem_color i f) sel then
        Simplex.Set.add (Simplex.proj sel f) acc
      else acc)
    Simplex.Set.empty (Complex.facets c)
  |> Simplex.Set.elements

let gen_with_ids_case =
  let open QCheck2.Gen in
  let colors = [ 1; 2; 3; 4 ] in
  let subset l =
    map
      (fun keep -> List.filteri (fun i _ -> List.nth keep i) l)
      (list_repeat (List.length l) bool)
  in
  let nonempty l =
    subset l >>= function [] -> map (fun i -> [ i ]) (oneofl l) | s -> return s
  in
  nonempty colors >>= fun cs ->
  let facet_on cs =
    flatten_l (List.map (fun i -> map (fun x -> (i, Value.Int x)) (int_range 0 2)) cs)
    >|= Simplex.of_list
  in
  let others = List.filter (fun i -> not (List.mem i cs)) (5 :: colors) in
  let sel =
    oneof
      [
        return cs;
        (* strict subset: drop one color *)
        map
          (fun i -> if List.length cs = 1 then cs else List.filter (( <> ) i) cs)
          (oneofl cs);
        (* strict superset: add at least one outside color *)
        map2
          (fun i extra -> List.sort_uniq Int.compare ((i :: extra) @ cs))
          (oneofl others) (subset others);
        nonempty (5 :: colors);
      ]
  in
  let pure = list_size (int_range 1 5) (facet_on cs) in
  let extra =
    oneof [ return []; list_size (int_range 1 3) (Gen.simplex ~max_color:5 ()) ]
  in
  triple sel pure extra >|= fun (sel, pure, extra) ->
  (sel, Complex.of_facets (pure @ extra))

let prop_simplices_with_ids =
  QCheck2.Test.make ~name:"simplices_with_ids = per-facet projection" ~count:300
    ~print:(fun (sel, c) ->
      Format.asprintf "sel=[%s] %a"
        (String.concat ";" (List.map string_of_int sel))
        Complex.pp c)
    gen_with_ids_case
    (fun (sel, c) ->
      List.equal Simplex.equal
        (Complex.simplices_with_ids sel c)
        (with_ids_reference sel c))

let suite =
  ( "complex",
    [
      Alcotest.test_case "maximalization" `Quick test_maximalize;
      Alcotest.test_case "membership" `Quick test_membership;
      Alcotest.test_case "counts" `Quick test_counts;
      Alcotest.test_case "union/proj/skeleton" `Quick test_union_proj_skeleton;
      Alcotest.test_case "simplices_with_ids" `Quick test_simplices_with_ids;
      Alcotest.test_case "colors" `Quick test_colors_and_vertices_of_color;
      Alcotest.test_case "simplicial image" `Quick test_map;
      Alcotest.test_case "subcomplex" `Quick test_subcomplex;
      QCheck_alcotest.to_alcotest prop_mem_downward_closed;
      QCheck_alcotest.to_alcotest prop_facets_maximal;
      QCheck_alcotest.to_alcotest prop_union_monotone;
      QCheck_alcotest.to_alcotest prop_proj_subcomplex;
      QCheck_alcotest.to_alcotest prop_simplices_with_ids;
    ] )
