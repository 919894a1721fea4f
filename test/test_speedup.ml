(* Tests for the mechanized speedup theorem (Theorems 1-2). *)

let binary_inputs n =
  Complex.all_simplices (Approx_agreement.binary_input_complex ~n)

let test_plain_instance () =
  let task = Approx_agreement.task ~n:2 ~m:3 ~eps:(Frac.make 1 3) in
  let r =
    Speedup.verify (Speedup.of_model Model.Immediate) task ~rounds:1
      ~inputs:(binary_inputs 2)
  in
  Alcotest.(check bool) "base solvable" true (Solvability.is_solvable r.Speedup.base);
  Alcotest.(check bool) "construction valid" true r.Speedup.construction_valid;
  Alcotest.(check bool) "closure direct" true
    (Solvability.is_solvable r.Speedup.closure_direct);
  Alcotest.(check bool) "holds" true (Speedup.speedup_holds r)

let test_unsolvable_base_vacuous () =
  let task = Consensus.binary ~n:2 in
  let r =
    Speedup.verify (Speedup.of_model Model.Immediate) task ~rounds:1
      ~inputs:(Task.input_simplices task)
  in
  Alcotest.(check bool) "base unsolvable" false (Solvability.is_solvable r.Speedup.base);
  Alcotest.(check bool) "theorem vacuously holds" true (Speedup.speedup_holds r)

let test_undecided_base_fails () =
  (* A node limit the base search cannot meet must not turn the check
     into a pass, and the undecided base is carried into the direct
     closure check instead of being read as "unsolvable".  This base
     search needs more than one node. *)
  let task = Approx_agreement.task ~n:2 ~m:2 ~eps:Frac.half in
  let setting = Speedup.of_model Model.Immediate in
  let inputs = binary_inputs 2 in
  let r = Speedup.verify ~node_limit:1 setting task ~rounds:1 ~inputs in
  let undecided = function Solvability.Undecided -> true | _ -> false in
  Alcotest.(check bool) "base undecided" true (undecided r.Speedup.base);
  Alcotest.(check bool) "closure direct undecided" true
    (undecided r.Speedup.closure_direct);
  Alcotest.(check bool) "not a pass" false (Speedup.speedup_holds r);
  Alcotest.(check bool) "passes without the limit" true
    (Speedup.speedup_holds (Speedup.verify setting task ~rounds:1 ~inputs))

let test_undecided_closure_member () =
  (* The base search fits in one node, but some membership search of
     the closure does not: the closure is undecided, so the check is
     neither a pass nor an escaping exception, and the undecided σ
     leaves no memo entry behind.  The memo is emptied and the store
     switched off first, so the searches really run. *)
  let task = Approx_agreement.task ~n:2 ~m:3 ~eps:(Frac.make 1 3) in
  let setting = Speedup.of_model Model.Immediate in
  let inputs = binary_inputs 2 in
  Fun.protect ~finally:Cert_store.unset_dir (fun () ->
      Cert_store.set_dir None;
      Closure.reset_memo ();
      let r = Speedup.verify ~node_limit:1 setting task ~rounds:1 ~inputs in
      let undecided = function Solvability.Undecided -> true | _ -> false in
      Alcotest.(check bool) "base solvable" true (Solvability.is_solvable r.Speedup.base);
      Alcotest.(check bool) "closure direct undecided" true
        (undecided r.Speedup.closure_direct);
      Alcotest.(check bool) "construction not valid" false r.Speedup.construction_valid;
      Alcotest.(check bool) "not a pass" false (Speedup.speedup_holds r);
      let op = Speedup.closure_op setting ~rounds:1 in
      let sigma = Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 1) ] in
      Alcotest.(check bool) "σ's membership search is undecided" true
        (match Closure.delta ~node_limit:1 ~memo:false ~op task sigma with
        | exception Closure.Undecided_local_task _ -> true
        | _ -> false);
      let misses = (Closure.memo_stats ()).Closure.misses in
      ignore (Closure.delta ~op task sigma);
      Alcotest.(check int) "no memo entry for σ" (misses + 1)
        (Closure.memo_stats ()).Closure.misses)

let test_derive_map_explicit () =
  (* The derived f' maps each (t-1)-round vertex like the solo
     extension: check on a solved 1-round instance that f' at round 0
     maps input vertices to the value f gives their solo view. *)
  let task = Approx_agreement.task ~n:2 ~m:3 ~eps:(Frac.make 1 3) in
  let setting = Speedup.of_model Model.Immediate in
  let inputs = binary_inputs 2 in
  (match
     Solvability.decide ~inputs
       ~protocol:(fun s -> Speedup.protocol setting s 1)
       ~delta:(Task.delta task) ()
   with
  | Solvability.Solvable f ->
      let f' = Speedup.derive_map setting ~task ~rounds:1 ~inputs ~f in
      let v = Vertex.make 1 (Value.frac 0 1) in
      let solo = Vertex.make 1 (Model.solo_view 1 (Value.frac 0 1)) in
      Alcotest.(check bool) "f'(v) = f(solo(v))" true
        (Vertex.equal (Simplicial_map.apply f' v) (Simplicial_map.apply f solo))
  | _ -> Alcotest.fail "base should be solvable");
  ()

let test_rounds_validation () =
  let task = Consensus.binary ~n:2 in
  Alcotest.check_raises "rounds >= 1 required"
    (Invalid_argument "Speedup.verify: rounds must be >= 1") (fun () ->
      ignore
        (Speedup.verify (Speedup.of_model Model.Immediate) task ~rounds:0
           ~inputs:(Task.input_simplices task)))

let test_tas_setting () =
  let task = Approx_agreement.task ~n:2 ~m:3 ~eps:(Frac.make 1 3) in
  let r =
    Speedup.verify Speedup.of_test_and_set task ~rounds:1 ~inputs:(binary_inputs 2)
  in
  Alcotest.(check bool) "holds with test&set" true (Speedup.speedup_holds r);
  Alcotest.(check string) "setting name" "immediate+test&set"
    (Speedup.setting_name Speedup.of_test_and_set)

let test_beta_setting () =
  let task = Approx_agreement.liberal ~n:3 ~m:2 ~eps:Frac.half in
  let setting = Speedup.of_bin_consensus_beta (fun ~round:_ i -> i = 1) in
  let r = Speedup.verify setting task ~rounds:1 ~inputs:(binary_inputs 3) in
  Alcotest.(check bool) "holds with β-consensus" true (Speedup.speedup_holds r)

let test_two_round_chain () =
  (* Chaining the theorem twice: 2-round solvable task, closure of
     closure solvable in 0 rounds. *)
  let op = Round_op.plain Model.Immediate in
  let task = Approx_agreement.task ~n:2 ~m:9 ~eps:(Frac.make 1 9) in
  let cl2 = Closure.iterate ~op 2 task in
  let inputs = binary_inputs 2 in
  Alcotest.(check bool) "CL^2 solvable in 0 rounds" true
    (Solvability.is_solvable
       (Solvability.task_in_model ~inputs Model.Immediate cl2 ~rounds:0));
  (* But one closure is not enough. *)
  let cl1 = Closure.iterate ~op 1 task in
  Alcotest.(check bool) "CL^1 not 0-round solvable" false
    (Solvability.is_solvable
       (Solvability.task_in_model ~inputs Model.Immediate cl1 ~rounds:0))

let suite =
  ( "speedup",
    [
      Alcotest.test_case "plain instance" `Quick test_plain_instance;
      Alcotest.test_case "vacuous when unsolvable" `Quick test_unsolvable_base_vacuous;
      Alcotest.test_case "undecided base is not a pass" `Quick test_undecided_base_fails;
      Alcotest.test_case "undecided closure member is not a pass" `Quick
        test_undecided_closure_member;
      Alcotest.test_case "derived map shape" `Quick test_derive_map_explicit;
      Alcotest.test_case "rounds validation" `Quick test_rounds_validation;
      Alcotest.test_case "test&set setting" `Quick test_tas_setting;
      Alcotest.test_case "β-consensus setting" `Quick test_beta_setting;
      Alcotest.test_case "two-round chain" `Quick test_two_round_chain;
    ] )
