(* Tests for the domain-pool runtime (lib/parallel): determinism,
   exception propagation, nesting, and the jobs=1 sequential
   equivalence that the byte-identical-tables guarantee rests on. *)

let with_jobs n f =
  Pool.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Pool.set_jobs None) f

let test_jobs_resolution () =
  with_jobs 3 (fun () -> Alcotest.(check int) "override wins" 3 (Pool.jobs ()));
  Alcotest.check_raises "set_jobs 0 rejected"
    (Invalid_argument "Pool.set_jobs: job count must be positive, got 0")
    (fun () -> Pool.set_jobs (Some 0));
  Alcotest.check_raises "set_jobs negative rejected"
    (Invalid_argument "Pool.set_jobs: job count must be positive, got -2")
    (fun () -> Pool.set_jobs (Some (-2)));
  Pool.set_jobs None;
  Alcotest.(check bool) "default is positive" true (Pool.jobs () >= 1)

(* SPEEDUP_JOBS must reject 0, negatives, and garbage loudly.  Since
   [Unix.putenv] cannot unset a variable, "" (treated as unset) is
   used to restore the environment afterwards. *)
let test_env_jobs_validation () =
  let with_env value f =
    let saved = Option.value (Sys.getenv_opt "SPEEDUP_JOBS") ~default:"" in
    Unix.putenv "SPEEDUP_JOBS" value;
    Fun.protect ~finally:(fun () -> Unix.putenv "SPEEDUP_JOBS" saved) f
  in
  Pool.set_jobs None;
  with_env "3" (fun () ->
      Alcotest.(check int) "env positive accepted" 3 (Pool.jobs ()));
  with_env " 2 " (fun () ->
      Alcotest.(check int) "env trimmed" 2 (Pool.jobs ()));
  with_env "" (fun () ->
      Alcotest.(check bool) "empty env means default" true (Pool.jobs () >= 1));
  with_env "0" (fun () ->
      Alcotest.check_raises "env zero rejected"
        (Invalid_argument "SPEEDUP_JOBS must be a positive integer, got 0")
        (fun () -> ignore (Pool.jobs ())));
  with_env "-4" (fun () ->
      Alcotest.check_raises "env negative rejected"
        (Invalid_argument "SPEEDUP_JOBS must be a positive integer, got -4")
        (fun () -> ignore (Pool.jobs ())));
  with_env "lots" (fun () ->
      Alcotest.check_raises "env garbage rejected"
        (Invalid_argument "SPEEDUP_JOBS must be a positive integer, got \"lots\"")
        (fun () -> ignore (Pool.jobs ())));
  (* An override shields resolution from a broken environment. *)
  with_env "bogus" (fun () ->
      with_jobs 2 (fun () ->
          Alcotest.(check int) "override bypasses env" 2 (Pool.jobs ())))

let test_order_preserved () =
  let l = List.init 257 (fun i -> i) in
  with_jobs 4 (fun () ->
      Alcotest.(check (list int))
        "map order" (List.map (fun x -> (x * 31) mod 97) l)
        (Pool.map (fun x -> (x * 31) mod 97) l);
      Alcotest.(check (list int))
        "filter_map order"
        (List.filter_map (fun x -> if x mod 3 = 0 then Some (x * 2) else None) l)
        (Pool.filter_map (fun x -> if x mod 3 = 0 then Some (x * 2) else None) l);
      Alcotest.(check (list int))
        "filter order"
        (List.filter (fun x -> x mod 7 <> 0) l)
        (Pool.filter (fun x -> x mod 7 <> 0) l))

let test_empty_and_singleton () =
  with_jobs 4 (fun () ->
      Alcotest.(check (list int)) "empty map" [] (Pool.map succ []);
      Alcotest.(check (list int)) "singleton map" [ 8 ] (Pool.map succ [ 7 ]);
      Alcotest.(check bool) "empty for_all" true (Pool.for_all (fun _ -> false) []))

let test_for_all () =
  let l = List.init 500 (fun i -> i) in
  with_jobs 4 (fun () ->
      Alcotest.(check bool) "all pass" true (Pool.for_all (fun x -> x >= 0) l);
      Alcotest.(check bool) "one fails" false
        (Pool.for_all (fun x -> x <> 311) l))

let test_exception_propagation () =
  with_jobs 4 (fun () ->
      Alcotest.check_raises "exception re-raised" (Failure "boom") (fun () ->
          ignore (Pool.map (fun x -> if x = 137 then failwith "boom" else x)
                    (List.init 400 (fun i -> i))));
      (* The pool survives an exceptional batch. *)
      Alcotest.(check (list int)) "pool reusable" [ 2; 3; 4 ]
        (Pool.map succ [ 1; 2; 3 ]))

let test_nested_no_deadlock () =
  (* Inner calls — from workers and from the participating submitter —
     must flatten to the sequential path instead of waiting on the
     pool.  A deadlock here would hang the suite, so keep it small. *)
  let l = List.init 60 (fun i -> i) in
  with_jobs 4 (fun () ->
      let sums =
        Pool.map
          (fun x ->
            List.fold_left ( + ) 0 (Pool.map (fun y -> x + y) (List.init 30 Fun.id)))
          l
      in
      Alcotest.(check int) "nested result" (List.length l) (List.length sums);
      Alcotest.(check bool) "caller not left flagged" false
        (Pool.in_parallel_region ()))

let test_jobs1_equals_sequential () =
  (* SPEEDUP_JOBS=1 must be the plain List path: identical results and
     identical (left-to-right) effect order. *)
  let l = List.init 100 (fun i -> i) in
  let trace_par = ref [] and trace_seq = ref [] in
  with_jobs 1 (fun () ->
      ignore (Pool.map (fun x -> trace_par := x :: !trace_par; x) l));
  ignore (List.map (fun x -> trace_seq := x :: !trace_seq; x) l);
  Alcotest.(check (list int)) "effect order" !trace_seq !trace_par;
  with_jobs 1 (fun () ->
      Alcotest.(check (list int)) "filter_map"
        (List.filter_map (fun x -> if x mod 2 = 0 then Some x else None) l)
        (Pool.filter_map (fun x -> if x mod 2 = 0 then Some x else None) l);
      Alcotest.(check bool) "for_all" true (Pool.for_all (fun x -> x < 100) l))

(* ---- work-stealing: determinism under uneven load ---- *)

(* Deterministic busy work — a pure spin, no clocks (the repo bans
   ambient time sources; a timed sleep would also make the test
   flaky).  Items at wildly uneven prices push the per-slot deques out
   of lock-step so thieves actually steal mid-batch. *)
let spin n x =
  let acc = ref x in
  for i = 1 to n do
    acc := ((!acc * 1103515245) + i) land 0xFFFFFF
  done;
  !acc

let prop_steal_schedule_invariant =
  QCheck2.Test.make
    ~name:"work stealing: results index-stable across jobs {1,2,4,8}"
    ~count:20
    QCheck2.Gen.(pair (int_range 0 400) (int_range 0 1000))
    (fun (len, salt) ->
      let l = List.init len (fun i -> i + salt) in
      (* Every 17th item costs ~400x the others: an injected stall that
         forces its owner's deque to back up and its neighbours to
         steal. *)
      let f x = spin (if x mod 17 = 0 then 20_000 else 50) x in
      let g x = if spin 10 x mod 3 = 0 then Some (x * 2) else None in
      let expect_map = List.map f l and expect_fm = List.filter_map g l in
      List.for_all
        (fun n ->
          with_jobs n (fun () ->
              Pool.map ~grain:1 f l = expect_map
              && Pool.filter_map ~grain:1 g l = expect_fm))
        [ 1; 2; 4; 8 ])

let test_grain_cutoff_inline () =
  (* A fan-out that does not fill two chunks runs inline on the
     caller: left-to-right effect order (the List path), and none of
     the domain-crossing counters move. *)
  let l = List.init 64 (fun i -> i) in
  Pool.reset_stats ();
  let trace = ref [] in
  with_jobs 4 (fun () ->
      ignore (Pool.map ~grain:64 (fun x -> trace := x :: !trace; x) l));
  Alcotest.(check (list int)) "inline effect order" (List.rev l) !trace;
  let s = Pool.stats () in
  Alcotest.(check int) "no batch for sub-grain fan-out" 0 s.Pool.batches;
  Alcotest.(check int) "no chunks for sub-grain fan-out" 0 s.Pool.chunks

let test_stats_accounting () =
  let l = List.init 300 (fun i -> i) in
  Pool.reset_stats ();
  with_jobs 4 (fun () -> ignore (Pool.map ~grain:1 (spin 100) l));
  let s = Pool.stats () in
  Alcotest.(check int) "one batch" 1 s.Pool.batches;
  Alcotest.(check int) "every item covered exactly once" (List.length l)
    s.Pool.items;
  Alcotest.(check bool) "chunks executed" true (s.Pool.chunks > 0);
  Alcotest.(check int) "per-slot tallies sum to the chunk total"
    s.Pool.chunks
    (List.fold_left (fun acc (_, c) -> acc + c) 0 s.Pool.domain_chunks);
  Alcotest.(check bool) "steal accounting consistent" true
    (s.Pool.stolen_chunks >= s.Pool.steals);
  Pool.reset_stats ();
  Alcotest.(check int) "reset zeroes" 0 (Pool.stats ()).Pool.batches

(* SPEEDUP_GRAIN is validated exactly like SPEEDUP_JOBS. *)
let test_env_grain_validation () =
  let with_env value f =
    let saved = Option.value (Sys.getenv_opt "SPEEDUP_GRAIN") ~default:"" in
    Unix.putenv "SPEEDUP_GRAIN" value;
    Fun.protect ~finally:(fun () -> Unix.putenv "SPEEDUP_GRAIN" saved) f
  in
  let l = List.init 32 (fun i -> i) in
  with_env "1000000" (fun () ->
      Pool.reset_stats ();
      with_jobs 4 (fun () ->
          Alcotest.(check (list int)) "huge grain floor forces inline"
            (List.map succ l) (Pool.map succ l));
      Alcotest.(check int) "no batch under env grain" 0
        (Pool.stats ()).Pool.batches);
  with_env "0" (fun () ->
      Alcotest.check_raises "env zero rejected"
        (Invalid_argument "SPEEDUP_GRAIN must be a positive integer, got 0")
        (fun () ->
          with_jobs 4 (fun () -> ignore (Pool.map succ l))));
  with_env "coarse" (fun () ->
      Alcotest.check_raises "env garbage rejected"
        (Invalid_argument
           "SPEEDUP_GRAIN must be a positive integer, got \"coarse\"")
        (fun () ->
          with_jobs 4 (fun () -> ignore (Pool.map succ l))))

(* ---- the determinism guarantee on the real hot path ---- *)

let op = Round_op.plain Model.Immediate

let delta_at_jobs n t sigma =
  with_jobs n (fun () -> Closure.delta ~memo:false ~op t sigma)

let prop_closure_jobs_invariant =
  QCheck2.Test.make
    ~name:"Closure.delta at jobs=4 equals jobs=1 (random tasks)" ~count:15
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let t = Gen.random_task seed in
      List.for_all
        (fun sigma ->
          Complex.equal (delta_at_jobs 1 t sigma) (delta_at_jobs 4 t sigma))
        (Task.input_simplices t))

let test_closure_known_instance_jobs_invariant () =
  (* A named instance (liberal AA, the e7 facet) on top of the random
     family: closure and solvability agree across job counts. *)
  let t = Approx_agreement.liberal ~n:3 ~m:2 ~eps:Frac.half in
  let sigma =
    Simplex.of_list
      [ (1, Value.frac 0 1); (2, Value.frac 1 2); (3, Value.frac 1 1) ]
  in
  Alcotest.(check bool) "Δ' identical across job counts" true
    (Complex.equal (delta_at_jobs 1 t sigma) (delta_at_jobs 4 t sigma));
  let solve n =
    with_jobs n (fun () ->
        Solvability.is_solvable
          (Solvability.task_in_model Model.Immediate t ~rounds:1))
  in
  Alcotest.(check bool) "solver verdict identical" (solve 1) (solve 4)

let test_adversary_jobs_invariant () =
  let eps = Frac.make 1 2 in
  let protocol = Aa_halving.protocol ~m:2 ~eps in
  let task = Approx_agreement.task ~n:3 ~m:2 ~eps in
  let inputs =
    [ (1, Value.frac 0 1); (2, Value.frac 1 2); (3, Value.frac 1 1) ]
  in
  let schedules =
    Adversary.exhaustive_is ~boxed:false ~participants:[ 1; 2; 3 ] ~rounds:1
  in
  let run n =
    with_jobs n (fun () ->
        List.map
          (fun f -> f.Adversary.reason)
          (Adversary.check_task protocol task ~inputs ~schedules))
  in
  Alcotest.(check (list string)) "failure sweep identical" (run 1) (run 4)

let suite =
  ( "parallel",
    [
      Alcotest.test_case "jobs resolution" `Quick test_jobs_resolution;
      Alcotest.test_case "SPEEDUP_JOBS validation" `Quick
        test_env_jobs_validation;
      Alcotest.test_case "order preserved" `Quick test_order_preserved;
      Alcotest.test_case "empty / singleton" `Quick test_empty_and_singleton;
      Alcotest.test_case "for_all" `Quick test_for_all;
      Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
      Alcotest.test_case "nested map does not deadlock" `Quick test_nested_no_deadlock;
      Alcotest.test_case "jobs=1 = sequential path" `Quick test_jobs1_equals_sequential;
      QCheck_alcotest.to_alcotest prop_steal_schedule_invariant;
      Alcotest.test_case "grain cutoff runs inline" `Quick
        test_grain_cutoff_inline;
      Alcotest.test_case "pool stats accounting" `Quick test_stats_accounting;
      Alcotest.test_case "SPEEDUP_GRAIN validation" `Quick
        test_env_grain_validation;
      QCheck_alcotest.to_alcotest prop_closure_jobs_invariant;
      Alcotest.test_case "closure/solver jobs-invariant" `Quick
        test_closure_known_instance_jobs_invariant;
      Alcotest.test_case "adversary sweep jobs-invariant" `Quick
        test_adversary_jobs_invariant;
    ] )
