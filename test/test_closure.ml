(* Tests for the closure operator (Definitions 1-2) and its fixed
   points — the paper's central construction. *)

let op = Round_op.plain Model.Immediate

let test_delta_contains_delta () =
  (* Remark after Definition 2: Δ(σ) ⊆ Δ'(σ), for several tasks. *)
  let check task sigma =
    Alcotest.(check bool)
      (Printf.sprintf "Δ ⊆ Δ' for %s" task.Task.name)
      true
      (Complex.subcomplex (Task.delta task sigma) (Closure.delta ~op task sigma))
  in
  check (Consensus.binary ~n:2)
    (Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1) ]);
  check
    (Approx_agreement.task ~n:2 ~m:3 ~eps:(Frac.make 1 3))
    (Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 1) ]);
  check
    (Set_agreement.task ~n:3 ~k:2 ~values:[ Value.Int 0; Value.Int 1 ])
    (Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1); (3, Value.Int 0) ])

let test_consensus_fixed_point () =
  let t = Consensus.binary ~n:2 in
  Alcotest.(check bool) "fixed point" true
    (Closure.fixed_point_on ~op t (Task.input_simplices t))

let test_tau_member_consistent () =
  (* tau_member agrees with membership in the computed Δ'. *)
  let t = Approx_agreement.task ~n:2 ~m:3 ~eps:(Frac.make 1 3) in
  let sigma = Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 1) ] in
  let d' = Closure.delta ~op t sigma in
  List.iter
    (fun tau ->
      Alcotest.(check bool)
        (Printf.sprintf "membership of %s" (Simplex.to_string tau))
        (Complex.mem tau d')
        (Closure.tau_member ~op t ~sigma ~tau))
    (Task.chromatic_output_sets t sigma)

let test_claim2_small () =
  let eps = Frac.make 1 9 in
  let t = Approx_agreement.task ~n:2 ~m:9 ~eps in
  let reference = Approx_agreement.task ~n:2 ~m:9 ~eps:(Frac.make 3 9) in
  let sigma = Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 1) ] in
  Alcotest.(check bool) "CL(eps-AA) = 3eps-AA on the 0-1 edge" true
    (Closure.equal_on ~op t ~reference (Simplex.faces sigma))

let test_claim3_small () =
  let eps = Frac.make 1 2 in
  let t = Approx_agreement.liberal ~n:3 ~m:2 ~eps in
  let reference = Approx_agreement.liberal ~n:3 ~m:2 ~eps:Frac.one in
  let sigma =
    Simplex.of_list
      [ (1, Value.frac 0 1); (2, Value.frac 1 2); (3, Value.frac 1 1) ]
  in
  Alcotest.(check bool) "CL(liberal eps) = liberal 2eps" true
    (Closure.equal_on ~op t ~reference (Simplex.faces sigma))

let test_closure_task_structure () =
  let t = Consensus.binary ~n:2 in
  let cl = Closure.task ~op t in
  Alcotest.(check int) "same arity" 2 cl.Task.arity;
  Alcotest.(check bool) "same inputs" true
    (Complex.equal (Task.inputs cl) (Task.inputs t));
  (* For a fixed point the closure's Δ agrees with the original. *)
  Alcotest.(check bool) "delta agrees" true
    (Task.delta_equal_on cl t (Task.input_simplices t))

let test_iterate_zero () =
  let t = Consensus.binary ~n:2 in
  Alcotest.(check string) "0 iterations is the task" t.Task.name
    (Closure.iterate ~op 0 t).Task.name

let test_augmented_closure_differs () =
  (* With test&set the closure of consensus-like behaviour changes: a
     disagreeing τ becomes legal for 2 participants (Figure 4). *)
  let t = Consensus.binary ~n:2 in
  let sigma = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1) ] in
  let tau = sigma in
  Alcotest.(check bool) "disagreement illegal in plain closure" false
    (Closure.tau_member ~op t ~sigma ~tau);
  Alcotest.(check bool) "legal with test&set" true
    (Closure.tau_member ~op:Round_op.test_and_set t ~sigma ~tau)

let test_beta_closure () =
  (* With all processes proposing the same β bit, the binary consensus
     box degenerates and the closure matches the plain one. *)
  let t = Approx_agreement.liberal ~n:3 ~m:2 ~eps:Frac.half in
  let sigma =
    Simplex.of_list
      [ (1, Value.frac 0 1); (2, Value.frac 1 2); (3, Value.frac 1 1) ]
  in
  let plain = Closure.delta ~op t sigma in
  let beta = Closure.delta ~op:(Round_op.bin_consensus_beta (fun _ -> false)) t sigma in
  Alcotest.(check bool) "degenerate β closure = plain closure" true
    (Complex.equal plain beta)

let test_witness () =
  (* The Figure-2 style witness: extract the one-round local-task map
     for a closure member and re-validate it by hand. *)
  let eps = Frac.make 1 3 in
  let t = Approx_agreement.task ~n:2 ~m:3 ~eps in
  let sigma = Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 1) ] in
  let tau = Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 1) ] in
  (match Closure.witness ~op t ~sigma ~tau with
  | None -> Alcotest.fail "tau at spread 3eps must be a closure member"
  | Some f ->
      Alcotest.(check bool) "chromatic" true (Simplicial_map.is_chromatic f);
      (* Solo vertices pinned to τ. *)
      List.iter
        (fun i ->
          let solo = Vertex.make i (Model.solo_view i (Simplex.value i tau)) in
          Alcotest.(check bool) "solo pinned" true
            (Vertex.equal (Simplicial_map.apply f solo)
               (Simplex.find i tau)))
        [ 1; 2 ];
      (* Every facet of P^1(τ) lands inside Δ(σ). *)
      List.iter
        (fun facet ->
          Alcotest.(check bool) "image in Δ(σ)" true
            (Complex.mem (Simplicial_map.apply_simplex f facet) (Task.delta t sigma)))
        (Model.one_round_facets Model.Immediate tau));
  (* A non-member yields no witness. *)
  let t9 = Approx_agreement.task ~n:2 ~m:9 ~eps:(Frac.make 1 9) in
  let far = Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 1) ] in
  Alcotest.(check bool) "no witness beyond 3eps" true
    (Closure.witness ~op t9 ~sigma ~tau:far = None)

let test_delta_any () =
  (* The union-over-β closure contains each single-β closure and is
     memoized consistently. *)
  let t = Approx_agreement.liberal ~n:3 ~m:2 ~eps:Frac.half in
  let sigma =
    Simplex.of_list
      [ (1, Value.frac 0 1); (2, Value.frac 1 2); (3, Value.frac 1 1) ]
  in
  let ops = Closure.bin_consensus_ops [ 1; 2; 3 ] in
  Alcotest.(check int) "8 betas" 8 (List.length ops);
  let d_any = Closure.delta_any ~ops ~name:"test-any" t sigma in
  List.iter
    (fun op ->
      Alcotest.(check bool) "single β contained" true
        (Complex.subcomplex (Closure.delta ~op t sigma) d_any))
    ops;
  let again = Closure.delta_any ~ops ~name:"test-any" t sigma in
  Alcotest.(check bool) "memoized result stable" true (Complex.equal d_any again)

let test_beta_closures_not_conflated () =
  (* Regression: different β operators must not share memo entries.
     On (0, 1/2, 1) the constant-β closure is the 2ε task (65 facets)
     while a mixed β — which lets disjoint sides exploit the box — is
     strictly larger (95 facets). *)
  let m = 4 in
  let laa = Approx_agreement.liberal ~n:3 ~m ~eps:(Frac.make 1 m) in
  let sigma =
    Simplex.of_list
      [ (1, Value.frac 0 1); (2, Value.frac 1 2); (3, Value.frac 1 1) ]
  in
  let d beta = Closure.delta ~op:(Round_op.bin_consensus_beta beta) laa sigma in
  let d_const = d (fun _ -> false) in
  let d_mixed = d (fun i -> i = 1) in
  Alcotest.(check int) "constant β = 2eps closure" 65 (Complex.facet_count d_const);
  Alcotest.(check int) "mixed β strictly larger" 95 (Complex.facet_count d_mixed);
  Alcotest.(check bool) "not conflated" false (Complex.equal d_const d_mixed)

let test_round_op_accessors () =
  Alcotest.(check string) "plain name" "immediate"
    (Round_op.name (Round_op.plain Model.Immediate));
  Alcotest.(check string) "tas name" "immediate+test&set"
    (Round_op.name Round_op.test_and_set);
  let sigma = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1) ] in
  Alcotest.(check int) "complex facets" 3
    (Complex.facet_count (Round_op.complex (Round_op.plain Model.Immediate) sigma));
  (* Solo vertices: plain vs boxed shapes. *)
  let plain_solo = Round_op.solo_vertex (Round_op.plain Model.Immediate) sigma 1 in
  Alcotest.(check bool) "plain solo is a view" true
    (match Vertex.value plain_solo with Value.View _ -> true | _ -> false);
  let tas_solo = Round_op.solo_vertex Round_op.test_and_set sigma 1 in
  Alcotest.(check bool) "tas solo wins" true
    (match Vertex.value tas_solo with
    | Value.Pair { fst = Value.Bool true; _ } -> true
    | _ -> false)

(* ---- the memo under concurrency ---- *)

let with_jobs n f =
  Pool.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Pool.set_jobs None) f

let test_batched_publication_parity () =
  (* Memo writes from pool workers land in the one locked table;
     nothing may be lost on the way: after the same workload the table
     must hold exactly the entries of the sequential run, and a warm
     pass must be served entirely from it.  Random tasks are
     unregistered, so the cert store never engages. *)
  let t = Gen.random_task 1234 in
  let sigmas = Task.input_simplices t in
  let workload () =
    List.iter (fun sigma -> ignore (Closure.delta ~op t sigma)) sigmas
  in
  let run jobs =
    with_jobs jobs (fun () ->
        Closure.reset_memo ();
        workload ();
        Closure.memo_stats ())
  in
  let seq = run 1 in
  let par = run 4 in
  Alcotest.(check int) "published entries match sequential"
    seq.Closure.entries par.Closure.entries;
  Alcotest.(check int) "enumerations match sequential"
    seq.Closure.enumerations par.Closure.enumerations;
  (* Warm pass at jobs=4: every σ served from the published table. *)
  with_jobs 4 (fun () -> workload ());
  let warm = Closure.memo_stats () in
  Alcotest.(check int) "warm pass adds no entries" par.Closure.entries
    warm.Closure.entries;
  Alcotest.(check int) "warm pass re-enumerates nothing"
    par.Closure.enumerations warm.Closure.enumerations;
  (* Two submitter domains race the same workload: their batches
     serialize on the pool, their memo inserts interleave under the
     lock, and the table still converges to the sequential entry set
     (a σ may be enumerated by both, but inserts are keyed, not
     appended). *)
  with_jobs 4 (fun () ->
      Closure.reset_memo ();
      let d1 = Domain.spawn workload and d2 = Domain.spawn workload in
      Domain.join d1;
      Domain.join d2;
      Alcotest.(check int) "racing submitters converge on the same entries"
        seq.Closure.entries (Closure.memo_stats ()).Closure.entries)

(* Differential oracle: the memo (on, at jobs=2, σs fanned out across
   the pool so inserts race) against no memo at jobs=1.  A second pass
   must be served entirely from the memo. *)
let memo_matches_oracle t =
  let sigmas = Task.input_simplices t in
  let oracle =
    with_jobs 1 (fun () ->
        List.map (fun sigma -> Closure.delta ~memo:false ~op t sigma) sigmas)
  in
  with_jobs 2 (fun () ->
      Closure.reset_memo ();
      let pass () =
        Pool.map ~grain:1 (fun sigma -> Closure.delta ~op t sigma) sigmas
      in
      let first = pass () in
      let before = Closure.memo_stats () in
      let second = pass () in
      let after = Closure.memo_stats () in
      List.for_all2 Complex.equal oracle first
      && List.for_all2 Complex.equal oracle second
      && before.Closure.entries = List.length sigmas
      && after.Closure.entries = before.Closure.entries
      && after.Closure.enumerations = before.Closure.enumerations
      && after.Closure.hits - before.Closure.hits = List.length sigmas)

let prop_memo_oracle =
  QCheck2.Test.make ~name:"memo on at jobs=2 = memo off at jobs=1 (random tasks)"
    ~count:20
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed -> memo_matches_oracle (Gen.random_task seed))

let test_memo_oracle_n3 () =
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "memo = oracle for %s" t.Task.name)
        true (memo_matches_oracle t))
    [
      Consensus.binary ~n:3;
      Approx_agreement.task ~n:3 ~m:2 ~eps:(Frac.make 1 2);
    ]

let test_reset_races_submitters () =
  (* [reset_memo] while two submitter domains fill the memo: whatever
     survives must still be the Δ'(σ) of its key. *)
  let t = Approx_agreement.task ~n:3 ~m:2 ~eps:(Frac.make 1 2) in
  let sigmas = Task.input_simplices t in
  let oracle =
    with_jobs 1 (fun () ->
        List.map (fun sigma -> Closure.delta ~memo:false ~op t sigma) sigmas)
  in
  with_jobs 2 (fun () ->
      Closure.reset_memo ();
      let running = Atomic.make 2 in
      let workload () =
        for _ = 1 to 3 do
          List.iter (fun sigma -> ignore (Closure.delta ~op t sigma)) sigmas
        done;
        Atomic.decr running
      in
      let d1 = Domain.spawn workload and d2 = Domain.spawn workload in
      while Atomic.get running > 0 do
        Closure.reset_memo ();
        Domain.cpu_relax ()
      done;
      Domain.join d1;
      Domain.join d2;
      (* Every surviving entry is keyed by one of this task's σs, so a
         memoizing pass over them hits each entry exactly once. *)
      let entries = (Closure.memo_stats ()).Closure.entries in
      let hits0 = (Closure.memo_stats ()).Closure.hits in
      let served = List.map (fun sigma -> Closure.delta ~op t sigma) sigmas in
      Alcotest.(check int) "every entry is read back" entries
        ((Closure.memo_stats ()).Closure.hits - hits0);
      Alcotest.(check bool) "every entry equals its memo-off value" true
        (List.for_all2 Complex.equal oracle served))

let suite =
  ( "closure",
    [
      Alcotest.test_case "Δ ⊆ Δ'" `Quick test_delta_contains_delta;
      Alcotest.test_case "consensus fixed point" `Quick test_consensus_fixed_point;
      Alcotest.test_case "tau_member consistency" `Quick test_tau_member_consistent;
      Alcotest.test_case "Claim 2 (small)" `Quick test_claim2_small;
      Alcotest.test_case "Claim 3 (small)" `Quick test_claim3_small;
      Alcotest.test_case "closure task structure" `Quick test_closure_task_structure;
      Alcotest.test_case "iterate 0" `Quick test_iterate_zero;
      Alcotest.test_case "augmented closure differs" `Quick test_augmented_closure_differs;
      Alcotest.test_case "β closure degenerates" `Quick test_beta_closure;
      Alcotest.test_case "delta_any (union over β)" `Quick test_delta_any;
      Alcotest.test_case "closure witness (Figure 2)" `Quick test_witness;
      Alcotest.test_case "β closures not conflated" `Quick test_beta_closures_not_conflated;
      Alcotest.test_case "round-op accessors" `Quick test_round_op_accessors;
      Alcotest.test_case "batched memo publication parity" `Quick
        test_batched_publication_parity;
      QCheck_alcotest.to_alcotest prop_memo_oracle;
      Alcotest.test_case "memo oracle: consensus and AA at n = 3" `Quick
        test_memo_oracle_n3;
      Alcotest.test_case "reset_memo races two submitters" `Quick
        test_reset_races_submitters;
    ] )
