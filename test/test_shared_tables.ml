(* Differential test of the solver's table construction.
   [Solvability.decide] builds one tuple table per (input, facet color
   set) and shares it across facets; the reference below is the
   unshared construction, one table per protocol facet rebuilt from
   Δ(σ') through [Complex.simplices_with_ids].  For local tasks the
   reference also builds Δ itself from Definition 1, instead of reading
   the projections [Local_task.make] shares across candidates.
   Variables and candidates are numbered exactly as
   [Solvability.decide] numbers them (candidates then variables, input
   by input, in vertex order), so the two must agree on the witness
   map, not just on the verdict. *)

let decide_unshared ~inputs ~protocol ~delta =
  let var_of = Vertex.Tbl.create 64 and vars = ref [] in
  let var_id v =
    if not (Vertex.Tbl.mem var_of v) then begin
      Vertex.Tbl.add var_of v (Vertex.Tbl.length var_of);
      vars := v :: !vars
    end
  in
  (* color -> (vertex -> candidate index, candidates in reverse order) *)
  let cands = Hashtbl.create 8 in
  let cands_of color =
    match Hashtbl.find_opt cands color with
    | Some c -> c
    | None ->
        let c = (Vertex.Tbl.create 16, ref []) in
        Hashtbl.add cands color c;
        c
  in
  let cand_index v =
    let t, l = cands_of (Vertex.color v) in
    match Vertex.Tbl.find_opt t v with
    | Some k -> k
    | None ->
        let k = Vertex.Tbl.length t in
        Vertex.Tbl.add t v k;
        l := v :: !l;
        k
  in
  let pairs = List.map (fun sigma -> (protocol sigma, delta sigma)) inputs in
  List.iter
    (fun (p, d) ->
      List.iter (fun v -> ignore (cand_index v)) (Complex.vertices d);
      List.iter var_id (Complex.vertices p))
    pairs;
  let vars = List.rev !vars in
  let counts =
    Array.of_list
      (List.map (fun v -> Vertex.Tbl.length (fst (cands_of (Vertex.color v)))) vars)
  in
  let csp = Csp.create ~num_vars:(List.length vars) ~candidate_counts:counts in
  List.iter
    (fun (p, d) ->
      List.iter
        (fun facet ->
          let scope =
            Array.of_list (List.map (Vertex.Tbl.find var_of) (Simplex.vertices facet))
          in
          let tuples =
            Array.of_list
              (List.map
                 (fun s -> Array.of_list (List.map cand_index (Simplex.vertices s)))
                 (Complex.simplices_with_ids (Simplex.ids facet) d))
          in
          Csp.add_table_constraint csp ~scope ~tuples)
        (Complex.facets p))
    pairs;
  match Csp.solve csp with
  | Csp.Unsat -> Solvability.Unsolvable
  | Csp.Unknown -> Solvability.Undecided
  | Csp.Sat assignment ->
      let image v =
        let _, l = cands_of (Vertex.color v) in
        List.nth (List.rev !l) assignment.(Vertex.Tbl.find var_of v)
      in
      Solvability.Solvable
        (Simplicial_map.of_assoc (List.map (fun v -> (v, image v)) vars))

let same_verdict a b =
  match (a, b) with
  | Solvability.Solvable f, Solvability.Solvable g ->
      List.equal
        (fun (v, w) (v', w') -> Vertex.equal v v' && Vertex.equal w w')
        (Simplicial_map.graph f) (Simplicial_map.graph g)
  | Solvability.Unsolvable, Solvability.Unsolvable
  | Solvability.Undecided, Solvability.Undecided ->
      true
  | _ -> false

let agree ~inputs ~protocol ~delta =
  same_verdict
    (Solvability.decide ~inputs ~protocol ~delta ())
    (decide_unshared ~inputs ~protocol ~delta)

let immediate rounds sigma = Model.protocol_complex Model.Immediate sigma rounds

let prop_random_tasks name random_task =
  QCheck2.Test.make ~name ~count:40
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1))
    (fun (seed, rounds) ->
      let t = random_task seed in
      agree ~inputs:(Task.input_simplices t) ~protocol:(immediate rounds)
        ~delta:(Task.delta t))

(* Δ_{τ,σ} of Definition 1 built directly: a vertex is pinned to
   itself, a larger face τ' may map anywhere in proj_{ID(τ')}(Δ(σ)). *)
let local_delta task sigma tau' =
  match Simplex.vertices tau' with
  | [ v ] -> Complex.of_simplex (Simplex.singleton v)
  | _ -> Complex.proj (Simplex.ids tau') (Task.delta task sigma)

(* Every τ of the given closure enumerations that needs a solver run
   (τ ∉ Δ(σ)): [Solvability.local_task_solvable], with the layout key
   [key τ], against the unshared tables over the directly built local
   Δ — verdict and witness map.  Returns how many of them were
   solvable. *)
let check_hard_taus ~key ~one_round ~inputs tasks =
  let checked = ref 0 and witnessed = ref 0 in
  List.iter
    (fun task ->
      List.iter
        (fun sigma ->
          let zero = Task.delta task sigma in
          List.iter
            (fun tau ->
              if not (Complex.mem tau zero) then begin
                incr checked;
                let verdict =
                  Solvability.local_task_solvable ?layout_key:(key tau)
                    ~one_round task ~sigma ~tau
                in
                if Solvability.is_solvable verdict then incr witnessed;
                Alcotest.(check bool)
                  (Printf.sprintf "σ=%s τ=%s" (Simplex.to_string sigma)
                     (Simplex.to_string tau))
                  true
                  (same_verdict verdict
                     (decide_unshared ~inputs:(Simplex.faces tau)
                        ~protocol:(fun tau' ->
                          Complex.of_facets (one_round tau'))
                        ~delta:(local_delta task sigma)))
              end)
            (Task.chromatic_output_sets task sigma))
        (inputs task))
    tasks;
  Alcotest.(check bool) "some τ needed a solver run" true (!checked > 0);
  !witnessed

(* The unkeyed path (custom operators): the n = 3 consensus closure
   under Immediate, triangles only. *)
let test_consensus_closure_taus () =
  ignore
    (check_hard_taus
       ~key:(fun _ -> None)
       ~one_round:(Round_op.facets (Round_op.plain Model.Immediate))
       ~inputs:(fun task ->
         List.filter (fun s -> Simplex.card s = 3) (Task.input_simplices task))
       [ Consensus.binary ~n:3 ])

(* The custom operators pass no layout key, so their layouts are built
   per call; candidates and tables still come from the per-σ index.
   The last one is not pure: its facets on a face are the boundaries
   of the IIS facets, colored by proper subsets of the face's colors,
   so those tables are compiled outside the index. *)
let unkeyed_ops =
  [
    ("2-concurrency", Round_op.k_concurrency 2);
    ( "(inter iis snapshot)",
      Round_op.algebra (Result.get_ok (Algebra.parse "(inter iis snapshot)")) );
    ( "IIS facet boundaries",
      Round_op.custom ~name:"iis-boundaries" (fun tau' ->
          let facets = Model.one_round_facets Model.Immediate tau' in
          if Simplex.card tau' < 2 then facets
          else List.concat_map Simplex.boundary facets) );
  ]

let test_unkeyed op () =
  ignore
    (check_hard_taus
       ~key:(fun _ -> None)
       ~one_round:(Round_op.facets op) ~inputs:Task.input_simplices
       [ Consensus.binary ~n:3; Approx_agreement.task ~n:3 ~m:2 ~eps:Frac.half ])

(* The per-σ index against today's registration, for a random σ and τ:
   Δ_{τ,σ} built from Definition 1 face by face, every vertex
   registered input by input, then one table per face with two or
   more colors over the face's own Δ.  The index must number every
   color's candidates the same way and hold the same tuples, in the
   same order, for exactly those faces. *)
let prop_index_is_registration =
  QCheck2.Test.make ~name:"per-σ index = per-τ registration (random σ, τ)"
    ~count:200
    QCheck2.Gen.(triple (int_bound 2) (int_range 0 100_000) (int_range 0 100_000))
    (fun (which, seed, pick) ->
      let task =
        match which with
        | 0 -> Consensus.binary ~n:3
        | 1 -> Approx_agreement.task ~n:3 ~m:2 ~eps:Frac.half
        | _ -> Gen.random_task seed
      in
      let nth l = List.nth l (pick mod List.length l) in
      let sigma = nth (Task.input_simplices task) in
      let tau = nth (Task.chromatic_output_sets task sigma) in
      let cands = Hashtbl.create 8 in
      let registered c = Option.value (Hashtbl.find_opt cands c) ~default:[] in
      let faces = Simplex.faces tau in
      let deltas = List.map (local_delta task sigma) faces in
      List.iter
        (fun d ->
          List.iter
            (fun v ->
              let c = Vertex.color v in
              if not (List.exists (Vertex.equal v) (registered c)) then
                Hashtbl.replace cands c (registered c @ [ v ]))
            (Complex.vertices d))
        deltas;
      let id v =
        let rec find k = function
          | [] -> raise Not_found
          | w :: rest -> if Vertex.equal v w then k else find (k + 1) rest
        in
        find 0 (registered (Vertex.color v))
      in
      let want =
        List.filter_map
          (fun (face, d) ->
            if Simplex.card face < 2 then None
            else
              let f = Simplex.ids face in
              Some
                ( f,
                  Array.of_list
                    (List.map
                       (fun s -> Array.of_list (List.map id (Simplex.vertices s)))
                       (Complex.simplices_with_ids f d)) ))
          (List.combine faces deltas)
      in
      let ix = Solvability.index task sigma in
      (* A one-vertex τ registers only itself: its one face is solo and
         pinned either way, so the other candidates change nothing. *)
      (Simplex.card tau < 2
      || List.for_all
           (fun c ->
             List.equal Vertex.equal (registered c)
               (Array.to_list (Solvability.index_candidates ix c)))
           (Simplex.ids sigma))
      && List.sort compare (Solvability.index_tables ix) = List.sort compare want)

(* Two candidates of one σ that agree on colors {1, 2} read the same
   physical Δ on that shared face: the projection of Δ(σ) is built once
   per color set, not once per τ. *)
let test_local_delta_shared () =
  let task = Consensus.binary ~n:3 in
  let triangle x = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1); (3, Value.Int x) ] in
  let sigma = triangle 0 and tau = triangle in
  let face = Simplex.proj [ 1; 2 ] (tau 0) in
  let d0 = Task.delta (Local_task.make task ~sigma ~tau:(tau 0)) face
  and d1 = Task.delta (Local_task.make task ~sigma ~tau:(tau 1)) face in
  Alcotest.check (Alcotest.testable Complex.pp Complex.equal) "Definition 1"
    (local_delta task sigma face) d0;
  Alcotest.(check bool) "one physical Δ on the shared face" true (d0 == d1)

(* The keyed path: [Closure] passes [Round_op.layout_key], so every τ
   with the same key and color set reads one shared layout and has its
   witness relabeled by χ.  Each hard τ of two closures at n = 3, over
   every input simplex (so every color set gets its own entry), is
   checked against the unshared oracle.  In consensus every hard τ is
   refuted under the plain models, so the coarse AA task supplies the
   witnesses there.  The last operator's box inputs are τ's own
   values, so a key that dropped the α values would hand τ = (0, 0, 1)
   the layout of τ₀ = (1, 1, 0), whose box outputs differ. *)
let keyed_ops =
  [
    ("immediate", Round_op.plain Model.Immediate);
    ("snapshot", Round_op.plain Model.Snapshot);
    ("collect", Round_op.plain Model.Collect);
    ("test&set", Round_op.test_and_set);
    ("bin-consensus β", Round_op.bin_consensus_beta (fun i -> i mod 2 = 0));
    ( "bin-consensus on inputs",
      Round_op.augmented ~box:Black_box.bin_consensus
        ~alpha:(fun ~round:_ _ x -> x)
        ~round:1 );
  ]

let test_keyed_layouts op () =
  let witnessed =
    check_hard_taus ~key:(Round_op.layout_key op) ~one_round:(Round_op.facets op)
      ~inputs:Task.input_simplices
      [ Consensus.binary ~n:3; Approx_agreement.task ~n:3 ~m:2 ~eps:Frac.half ]
  in
  Alcotest.(check bool) "some τ had a witness" true (witnessed > 0)

(* The shared layout, relabeled onto a random τ, is Ξ₁ of each face of
   τ facet by facet (same facets, same order). *)
let prop_layout_is_one_round =
  let ops = Array.of_list (List.map snd keyed_ops) in
  QCheck2.Test.make ~name:"shared layout = one-round complex (random τ)"
    ~count:200
    QCheck2.Gen.(
      triple (int_bound (Array.length ops - 1)) (int_range 1 7)
        (list_repeat 3 (int_bound 2)))
    (fun (k, mask, values) ->
      let op = ops.(k) in
      let tau =
        Simplex.of_list
          (List.filteri
             (fun i _ -> mask land (1 lsl i) <> 0)
             (List.mapi (fun i x -> (i + 1, Value.Int x)) values))
      in
      let one_round = Round_op.facets op in
      match Round_op.layout_key op tau with
      | None -> false
      | Some key ->
          List.equal (List.equal Simplex.equal)
            (Solvability.layout_protocols key ~one_round tau)
            (List.map
               (fun tau' -> Complex.facets (Complex.of_facets (one_round tau')))
               (Simplex.faces tau)))

(* One input's protocol facets with three different color sets.  The
   protocol complex of σ is σ's own 1-skeleton, and Δ(σ) is a graph of
   edges, so each facet's table is a binary relation: "=" or "≠" on
   {0, 1}.  σ0 alone is satisfiable; σ1 adds an odd "≠" constraint on
   colors {2, 3} only, which makes the whole instance unsatisfiable.
   A table cache keyed by input alone (every facet of σ1 getting the
   {1, 2} table) or by color set alone (σ1 reusing σ0's tables) would
   answer Solvable. *)
let test_mixed_color_sets () =
  let v i x = (i, Value.Int x) in
  let edge i a j b = Simplex.of_list [ v i a; v j b ] in
  let eq i j = [ edge i 0 j 0; edge i 1 j 1 ] in
  let neq i j = [ edge i 0 j 1; edge i 1 j 0 ] in
  let sigma x = Simplex.of_list [ v 1 x; v 2 x; v 3 x ] in
  let sigma0 = sigma 0 and sigma1 = sigma 1 in
  let delta s =
    if Simplex.equal s sigma0 then Complex.of_facets (eq 1 2 @ eq 1 3 @ eq 2 3)
    else Complex.of_facets (eq 1 2 @ eq 1 3 @ neq 2 3)
  in
  let protocol s =
    Complex.of_facets (List.filter (fun f -> Simplex.card f = 2) (Simplex.faces s))
  in
  List.iter
    (fun s ->
      Alcotest.(check (list (list int)))
        "facet color sets differ" [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
        (List.sort compare (List.map Simplex.ids (Complex.facets (protocol s)))))
    [ sigma0; sigma1 ];
  let solvable inputs =
    Solvability.is_solvable (Solvability.decide ~inputs ~protocol ~delta ())
  in
  Alcotest.(check bool) "σ0 alone is solvable" true (solvable [ sigma0 ]);
  Alcotest.(check bool) "σ1 makes it unsolvable" false (solvable [ sigma0; sigma1 ]);
  List.iter
    (fun inputs ->
      Alcotest.(check bool) "shared = unshared" true (agree ~inputs ~protocol ~delta))
    [ [ sigma0 ]; [ sigma1 ]; [ sigma0; sigma1 ]; [ sigma1; sigma0 ] ]

let suite =
  ( "shared_tables",
    [
      QCheck_alcotest.to_alcotest
        (prop_random_tasks "shared = unshared tables (brute's random tasks)"
           Test_brute.random_task);
      QCheck_alcotest.to_alcotest
        (prop_random_tasks "shared = unshared tables (random 0/1/2 tasks)"
           Gen.random_task);
      Alcotest.test_case "n=3 consensus closure τs" `Quick test_consensus_closure_taus;
      QCheck_alcotest.to_alcotest prop_layout_is_one_round;
      QCheck_alcotest.to_alcotest prop_index_is_registration;
    ]
    @ List.map
        (fun (label, op) ->
          Alcotest.test_case ("unkeyed: " ^ label) `Quick (test_unkeyed op))
        unkeyed_ops
    @ List.map
        (fun (label, op) ->
          Alcotest.test_case ("keyed layouts: " ^ label) `Quick
            (test_keyed_layouts op))
        keyed_ops
    @ [
      Alcotest.test_case "local Δ shared across τ" `Quick test_local_delta_shared;
      Alcotest.test_case "facets with different color sets" `Quick
        test_mixed_color_sets;
    ] )
