(* Property-based tests of the theory itself on randomly generated
   2-process tasks: the speedup theorem and the closure containment
   hold for *every* task, so random tasks ([Gen.random_task]) are
   fair game. *)

let op = Round_op.plain Model.Immediate

let prop_closure_contains_delta =
  QCheck2.Test.make ~name:"Δ ⊆ Δ' for random tasks" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let t = Gen.random_task seed in
      List.for_all
        (fun sigma ->
          Complex.subcomplex (Task.delta t sigma) (Closure.delta ~op t sigma))
        (Task.input_simplices t))

let prop_speedup_theorem =
  QCheck2.Test.make ~name:"speedup theorem on random tasks (t=1)" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let t = Gen.random_task seed in
      Speedup.speedup_holds
        (Speedup.verify (Speedup.of_model Model.Immediate) t ~rounds:1
           ~inputs:(Task.input_simplices t)))

let prop_speedup_theorem_tas =
  QCheck2.Test.make ~name:"speedup theorem on random tasks (test&set)" ~count:25
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let t = Gen.random_task seed in
      Speedup.speedup_holds
        (Speedup.verify Speedup.of_test_and_set t ~rounds:1
           ~inputs:(Task.input_simplices t)))

let prop_closure_monotone_in_model =
  (* More executions make local tasks harder: the collect closure is
     contained in the snapshot closure, which is contained in the IS
     closure. *)
  QCheck2.Test.make ~name:"Δ'_collect ⊆ Δ'_snapshot ⊆ Δ'_IS" ~count:25
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let t = Gen.random_task seed in
      List.for_all
        (fun sigma ->
          let d m = Closure.delta ~op:(Round_op.plain m) t sigma in
          Complex.subcomplex (d Model.Collect) (d Model.Snapshot)
          && Complex.subcomplex (d Model.Snapshot) (d Model.Immediate))
        (Task.input_simplices t))

let prop_zero_round_implies_closure_zero_round =
  (* Degenerate speedup: a 0-round solvable task has a 0-round
     solvable closure (since Δ ⊆ Δ'). *)
  QCheck2.Test.make ~name:"0-round solvable ⇒ closure 0-round solvable" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let t = Gen.random_task seed in
      let solvable0 task =
        Solvability.is_solvable
          (Solvability.task_in_model Model.Immediate task ~rounds:0)
      in
      (not (solvable0 t)) || solvable0 (Closure.task ~op t))

let suite =
  ( "random_tasks",
    [
      QCheck_alcotest.to_alcotest prop_closure_contains_delta;
      QCheck_alcotest.to_alcotest prop_speedup_theorem;
      QCheck_alcotest.to_alcotest prop_speedup_theorem_tas;
      QCheck_alcotest.to_alcotest prop_closure_monotone_in_model;
      QCheck_alcotest.to_alcotest prop_zero_round_implies_closure_zero_round;
    ] )
