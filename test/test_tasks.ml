(* Tests for the task zoo: consensus, approximate agreement, set
   agreement, and local tasks. *)

let complex = Alcotest.testable Complex.pp Complex.equal

(* ---- consensus ---- *)

let test_binary_consensus_delta () =
  let t = Consensus.binary ~n:3 in
  let mixed =
    Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1); (3, Value.Int 0) ]
  in
  let d = Task.delta t mixed in
  Alcotest.(check int) "mixed: two legal facets" 2 (Complex.facet_count d);
  let unanimous =
    Simplex.of_list [ (1, Value.Int 1); (2, Value.Int 1); (3, Value.Int 1) ]
  in
  Alcotest.(check complex) "unanimous: only itself"
    (Complex.of_simplex unanimous)
    (Task.delta t unanimous);
  let solo = Simplex.of_list [ (2, Value.Int 0) ] in
  Alcotest.(check complex) "solo pinned" (Complex.of_simplex solo)
    (Task.delta t solo)

let test_consensus_complex_sizes () =
  let t = Consensus.binary ~n:3 in
  Alcotest.(check int) "8 input facets" 8 (Complex.facet_count (Task.inputs t));
  Alcotest.(check int) "2 output facets" 2 (Complex.facet_count (Task.outputs t))

let test_consensus_carrier () =
  let t = Consensus.binary ~n:3 in
  Alcotest.(check bool) "Δ is a carrier map" true
    (Task.carrier_map_on t (Complex.facets (Task.inputs t)))

let test_relaxed_consensus () =
  let t = Consensus.relaxed ~n:3 ~values:[ Value.Int 0; Value.Int 1 ] in
  let pair = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1) ] in
  let d = Task.delta t pair in
  (* Two participants may disagree: all 4 combinations legal. *)
  Alcotest.(check int) "4 legal pair outputs" 4 (Complex.facet_count d);
  let triple =
    Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1); (3, Value.Int 1) ]
  in
  Alcotest.(check int) "3 participants must agree" 2
    (Complex.facet_count (Task.delta t triple));
  (* Validity: unanimous inputs leave no choice even for pairs. *)
  let pair_same = Simplex.of_list [ (1, Value.Int 1); (2, Value.Int 1) ] in
  Alcotest.(check complex) "unanimous pair pinned"
    (Complex.of_simplex pair_same)
    (Task.delta t pair_same)

(* ---- approximate agreement ---- *)

let test_aa_params_validated () =
  Alcotest.check_raises "eps not on grid"
    (Invalid_argument "Approx_agreement: eps is not a multiple of 1/m") (fun () ->
      ignore (Approx_agreement.task ~n:2 ~m:4 ~eps:(Frac.make 1 3)));
  Alcotest.check_raises "eps out of range"
    (Invalid_argument "Approx_agreement: eps outside (0,1]") (fun () ->
      ignore (Approx_agreement.task ~n:2 ~m:4 ~eps:(Frac.of_int 2)))

let test_aa_delta () =
  let t = Approx_agreement.task ~n:2 ~m:4 ~eps:(Frac.make 1 4) in
  let sigma = Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 2) ] in
  let d = Task.delta t sigma in
  (* Values in [0, 1/2] within 1/4 of each other: pairs (a,b) from
     {0,1/4,1/2} with |a-b| <= 1/4: (0,0),(0,1/4),(1/4,0),(1/4,1/4),
     (1/4,1/2),(1/2,1/4),(1/2,1/2) = 7. *)
  Alcotest.(check int) "7 legal outputs" 7 (Complex.facet_count d);
  Alcotest.(check bool) "range respected" true
    (List.for_all
       (Approx_agreement.in_range ~lo:Frac.zero ~hi:Frac.half)
       (Complex.facets d));
  Alcotest.(check bool) "eps respected" true
    (List.for_all
       (fun f -> Frac.(Approx_agreement.spread f <= Frac.make 1 4))
       (Complex.facets d))

let test_aa_solo_delta () =
  let t = Approx_agreement.task ~n:2 ~m:4 ~eps:(Frac.make 1 4) in
  let solo = Simplex.of_list [ (1, Value.frac 3 4) ] in
  Alcotest.(check complex) "solo keeps its value" (Complex.of_simplex solo)
    (Task.delta t solo)

let test_liberal_vs_standard () =
  let eps = Frac.make 1 4 in
  let std = Approx_agreement.task ~n:3 ~m:4 ~eps in
  let lib = Approx_agreement.liberal ~n:3 ~m:4 ~eps in
  let pair = Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 1) ] in
  (* Liberal drops the eps constraint for 2 participants... *)
  Alcotest.(check bool) "liberal pair wider" true
    (Complex.facet_count (Task.delta lib pair)
    > Complex.facet_count (Task.delta std pair));
  let triple =
    Simplex.of_list
      [ (1, Value.frac 0 1); (2, Value.frac 1 2); (3, Value.frac 1 1) ]
  in
  (* ... but keeps it for 3. *)
  Alcotest.(check complex) "liberal = standard on facets"
    (Task.delta std triple) (Task.delta lib triple)

let test_aa_carrier () =
  let t = Approx_agreement.task ~n:3 ~m:2 ~eps:Frac.half in
  Alcotest.(check bool) "Δ is a carrier map" true
    (Task.carrier_map_on t (Complex.facets (Task.inputs t)))

let test_grid () =
  Alcotest.(check int) "grid size" 5 (List.length (Approx_agreement.grid 4));
  Alcotest.(check int) "binary inputs n=3" 8
    (Complex.facet_count (Approx_agreement.binary_input_complex ~n:3))

(* ---- set agreement ---- *)

let test_set_agreement () =
  let t = Set_agreement.task ~n:3 ~k:2 ~values:[ Value.Int 0; Value.Int 1; Value.Int 2 ] in
  let rainbow =
    Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1); (3, Value.Int 2) ]
  in
  let d = Task.delta t rainbow in
  (* 27 assignments minus the 6 with three distinct values. *)
  Alcotest.(check int) "21 legal outputs" 21 (Complex.facet_count d);
  Alcotest.(check bool) "rainbow output illegal" false (Complex.mem rainbow d);
  (* k=1 coincides with consensus. *)
  let c1 = Set_agreement.task ~n:2 ~k:1 ~values:[ Value.Int 0; Value.Int 1 ] in
  let cons = Consensus.binary ~n:2 in
  Alcotest.(check bool) "1-set = consensus" true
    (Task.delta_equal_on c1 cons (Task.input_simplices cons))

(* ---- local tasks ---- *)

let test_local_task () =
  let t = Consensus.binary ~n:2 in
  let sigma = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1) ] in
  let tau = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1) ] in
  Alcotest.(check bool) "valid tau" true (Local_task.is_valid_tau t ~sigma ~tau);
  let local = Local_task.make t ~sigma ~tau in
  (* Vertices are pinned... *)
  let v = Simplex.of_list [ (1, Value.Int 0) ] in
  Alcotest.(check complex) "vertex pinned" (Complex.of_simplex v)
    (Task.delta local v);
  (* ... and the full face may map anywhere in Δ(σ). *)
  Alcotest.(check complex) "full face free" (Task.delta t sigma)
    (Task.delta local tau);
  (* Mismatched ids rejected. *)
  let bad = Simplex.of_list [ (1, Value.Int 0) ] in
  Alcotest.(check bool) "bad tau detected" false
    (Local_task.is_valid_tau t ~sigma ~tau:bad);
  Alcotest.check_raises "make rejects bad tau"
    (Invalid_argument
       "Local_task.make: tau is not a chromatic set of V(Delta(sigma))")
    (fun () -> ignore (Local_task.make t ~sigma ~tau:bad))

(* The memoized projections agree with projecting Δ(σ) afresh, for
   every input simplex and every color set over 1..n (subsets of ID(σ),
   sets reaching outside it, and ID(σ) itself, which must return Δ(σ)
   physically); a second request returns the same physical complex. *)
let test_delta_proj () =
  let values k = List.init k (fun i -> Value.Int i) in
  let tasks =
    List.concat_map
      (fun n ->
        [
          Consensus.binary ~n;
          Consensus.relaxed ~n ~values:(values 2);
          Set_agreement.task ~n ~k:2 ~values:(values 3);
          Approx_agreement.task ~n ~m:4 ~eps:(Frac.make 1 4);
          Approx_agreement.liberal ~n ~m:4 ~eps:(Frac.make 1 4);
        ])
      [ 2; 3 ]
  in
  let rec subsets = function
    | [] -> [ [] ]
    | i :: rest ->
        let tails = subsets rest in
        tails @ List.map (fun tl -> i :: tl) tails
  in
  List.iter
    (fun t ->
      let color_sets = List.filter (( <> ) []) (subsets (List.init t.Task.arity succ)) in
      List.iter
        (fun sigma ->
          let d = Task.delta t sigma in
          List.iter
            (fun ids ->
              let label =
                Printf.sprintf "%s σ=%s ids=%s" t.Task.name (Simplex.to_string sigma)
                  (String.concat "," (List.map string_of_int ids))
              in
              let p = Task.delta_proj t sigma ids in
              Alcotest.check complex label (Complex.proj ids d) p;
              Alcotest.(check bool) (label ^ " memoized") true
                (Task.delta_proj t sigma ids == p))
            color_sets;
          Alcotest.(check bool) "full color set is Δ(σ) itself" true
            (Task.delta_proj t sigma (Simplex.ids sigma) == d))
        (Task.input_simplices t))
    tasks

let test_chromatic_output_sets () =
  let t = Consensus.binary ~n:2 in
  let sigma = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1) ] in
  (* Candidates per color: 0 and 1 → 4 chromatic sets. *)
  Alcotest.(check int) "4 candidate taus" 4
    (List.length (Task.chromatic_output_sets t sigma))

let test_restrict_and_name () =
  let t = Consensus.binary ~n:2 in
  let sub = Approx_agreement.binary_input_complex ~n:2 in
  let r = Task.restrict_inputs t sub in
  Alcotest.(check int) "restricted inputs" 4 (Complex.facet_count (Task.inputs r));
  Alcotest.(check string) "renamed" "x" (Task.with_name "x" t).Task.name

let suite =
  ( "tasks",
    [
      Alcotest.test_case "binary consensus Δ" `Quick test_binary_consensus_delta;
      Alcotest.test_case "consensus complexes" `Quick test_consensus_complex_sizes;
      Alcotest.test_case "consensus carrier" `Quick test_consensus_carrier;
      Alcotest.test_case "relaxed consensus (Cor 2)" `Quick test_relaxed_consensus;
      Alcotest.test_case "AA parameter validation" `Quick test_aa_params_validated;
      Alcotest.test_case "AA Δ" `Quick test_aa_delta;
      Alcotest.test_case "AA solo Δ" `Quick test_aa_solo_delta;
      Alcotest.test_case "liberal vs standard AA" `Quick test_liberal_vs_standard;
      Alcotest.test_case "AA carrier" `Quick test_aa_carrier;
      Alcotest.test_case "grids" `Quick test_grid;
      Alcotest.test_case "k-set agreement" `Quick test_set_agreement;
      Alcotest.test_case "local tasks (Def 1)" `Quick test_local_task;
      Alcotest.test_case "memoized Δ projections" `Quick test_delta_proj;
      Alcotest.test_case "chromatic output sets" `Quick test_chromatic_output_sets;
      Alcotest.test_case "restrict/rename" `Quick test_restrict_and_name;
    ] )
