(* Tests for the table-constraint CSP engine. *)

let solve ?node_limit p =
  match Csp.solve ?node_limit p with
  | Csp.Sat a -> `Sat (Array.to_list a)
  | Csp.Unsat -> `Unsat
  | Csp.Unknown -> `Unknown

let test_trivial_sat () =
  let p = Csp.create ~num_vars:2 ~candidate_counts:[| 2; 2 |] in
  (match solve p with
  | `Sat [ _; _ ] -> ()
  | _ -> Alcotest.fail "unconstrained problem should be Sat");
  ()

let test_equality_chain () =
  (* x0 = x1 = x2, all binary, x0 pinned to 1. *)
  let p = Csp.create ~num_vars:3 ~candidate_counts:[| 2; 2; 2 |] in
  let eq = [| [| 0; 0 |]; [| 1; 1 |] |] in
  Csp.add_table_constraint p ~scope:[| 0; 1 |] ~tuples:eq;
  Csp.add_table_constraint p ~scope:[| 1; 2 |] ~tuples:eq;
  Csp.pin p ~var:0 ~value:1;
  Alcotest.(check bool) "propagates to all ones" true
    (solve p = `Sat [ 1; 1; 1 ])

let test_unsat_by_conflict () =
  (* x0 = x1 and x0 ≠ x1 simultaneously. *)
  let p = Csp.create ~num_vars:2 ~candidate_counts:[| 2; 2 |] in
  Csp.add_table_constraint p ~scope:[| 0; 1 |]
    ~tuples:[| [| 0; 0 |]; [| 1; 1 |] |];
  Csp.add_table_constraint p ~scope:[| 0; 1 |]
    ~tuples:[| [| 0; 1 |]; [| 1; 0 |] |];
  Alcotest.(check bool) "unsat" true (solve p = `Unsat)

let test_empty_table () =
  let p = Csp.create ~num_vars:1 ~candidate_counts:[| 3 |] in
  Csp.add_table_constraint p ~scope:[| 0 |] ~tuples:[||];
  Alcotest.(check bool) "empty table is unsat" true (solve p = `Unsat)

let test_empty_domain () =
  let p = Csp.create ~num_vars:2 ~candidate_counts:[| 0; 2 |] in
  Alcotest.(check bool) "empty domain unsat" true (solve p = `Unsat)

let test_conflicting_pins () =
  let p = Csp.create ~num_vars:1 ~candidate_counts:[| 2 |] in
  Csp.pin p ~var:0 ~value:0;
  Csp.pin p ~var:0 ~value:1;
  Alcotest.(check bool) "conflicting pins unsat" true (solve p = `Unsat)

let test_graph_coloring () =
  (* 2-coloring: a triangle is unsat, a path is sat. *)
  let neq = [| [| 0; 1 |]; [| 1; 0 |] |] in
  let triangle = Csp.create ~num_vars:3 ~candidate_counts:[| 2; 2; 2 |] in
  Csp.add_table_constraint triangle ~scope:[| 0; 1 |] ~tuples:neq;
  Csp.add_table_constraint triangle ~scope:[| 1; 2 |] ~tuples:neq;
  Csp.add_table_constraint triangle ~scope:[| 0; 2 |] ~tuples:neq;
  Alcotest.(check bool) "odd cycle not 2-colorable" true (solve triangle = `Unsat);
  let path = Csp.create ~num_vars:3 ~candidate_counts:[| 2; 2; 2 |] in
  Csp.add_table_constraint path ~scope:[| 0; 1 |] ~tuples:neq;
  Csp.add_table_constraint path ~scope:[| 1; 2 |] ~tuples:neq;
  (match solve path with
  | `Sat [ a; b; c ] ->
      Alcotest.(check bool) "proper coloring" true (a <> b && b <> c)
  | _ -> Alcotest.fail "path should be 2-colorable")

let test_ternary_constraint () =
  (* x0 + x1 + x2 = 1 over binaries, via its table. *)
  let p = Csp.create ~num_vars:3 ~candidate_counts:[| 2; 2; 2 |] in
  Csp.add_table_constraint p ~scope:[| 0; 1; 2 |]
    ~tuples:[| [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |] |];
  Csp.pin p ~var:2 ~value:1;
  Alcotest.(check bool) "forced assignment" true (solve p = `Sat [ 0; 0; 1 ])

let test_node_limit () =
  (* A pigeonhole-flavoured instance that requires search; with a
     1-node budget the solver must give up cleanly. *)
  let n = 6 in
  let p = Csp.create ~num_vars:n ~candidate_counts:(Array.make n n) in
  let neq =
    Array.of_list
      (List.concat_map
         (fun a ->
           List.filter_map
             (fun b -> if a <> b then Some [| a; b |] else None)
             (List.init n Fun.id))
         (List.init n Fun.id))
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Csp.add_table_constraint p ~scope:[| i; j |] ~tuples:neq
    done
  done;
  (match solve ~node_limit:1 p with
  | `Unknown -> ()
  | `Sat _ -> ()  (* propagation alone may already solve it *)
  | `Unsat -> Alcotest.fail "all-different over n values is satisfiable");
  (* With a real budget it is satisfiable. *)
  match solve p with
  | `Sat assignment ->
      let distinct = List.sort_uniq Stdlib.compare assignment in
      Alcotest.(check int) "all different" n (List.length distinct)
  | _ -> Alcotest.fail "should be satisfiable"

let test_reusable_solver () =
  (* Solving twice returns the same verdict: domains are restored. *)
  let p = Csp.create ~num_vars:2 ~candidate_counts:[| 2; 2 |] in
  Csp.add_table_constraint p ~scope:[| 0; 1 |]
    ~tuples:[| [| 0; 1 |]; [| 1; 0 |] |];
  let first = solve p in
  let second = solve p in
  Alcotest.(check bool) "idempotent" true (first = second)

let test_stats () =
  let p = Csp.create ~num_vars:2 ~candidate_counts:[| 2; 2 |] in
  Alcotest.(check int) "no nodes before solve" 0 (Csp.last_stats p).Csp.nodes;
  Csp.add_table_constraint p ~scope:[| 0; 1 |]
    ~tuples:[| [| 0; 1 |]; [| 1; 0 |] |];
  ignore (Csp.solve p);
  let s = Csp.last_stats p in
  Alcotest.(check bool) "nodes counted" true (s.Csp.nodes >= 1);
  Alcotest.(check bool) "revisions counted" true (s.Csp.revisions >= 1)

let test_arity_mismatch () =
  let p = Csp.create ~num_vars:2 ~candidate_counts:[| 2; 2 |] in
  Alcotest.check_raises "tuple arity checked"
    (Invalid_argument "Csp.add_table_constraint: tuple arity mismatch")
    (fun () -> Csp.add_table_constraint p ~scope:[| 0; 1 |] ~tuples:[| [| 0 |] |])


(* ---- differential oracle ----

   The reference below is the solver as it was before the bitset
   kernel: byte domains, and a revision that scans every tuple of the
   table.  It keeps the same queue discipline, variable choice and
   value order, so the kernel must match it step for step: same
   result, same assignment, same node and revision counts (pins
   included: both apply them before the first revision). *)
module Reference = struct
  type t = {
    counts : int array;
    mutable cons_rev : (int array * int array array) list;
    domains : Bytes.t array;
    dom_size : int array;
  }

  exception Inconsistent
  exception Limit

  let create counts =
    {
      counts;
      cons_rev = [];
      domains = Array.map (fun c -> Bytes.make c '\001') counts;
      dom_size = Array.copy counts;
    }

  let add t scope tuples = t.cons_rev <- (scope, tuples) :: t.cons_rev

  let pin t var value =
    let dom = t.domains.(var) in
    let alive = Bytes.get dom value = '\001' in
    Bytes.fill dom 0 (Bytes.length dom) '\000';
    if alive then Bytes.set dom value '\001';
    t.dom_size.(var) <- (if alive then 1 else 0)

  type state = {
    p : t;
    cons : (int array * int array array) array;
    var_cons : int list array;
    trail : (int * int) Stack.t;
    in_queue : Bytes.t;
    queue : int Queue.t;
    mutable nodes : int;
    mutable revisions : int;
    node_limit : int;
  }

  let alive st v k = Bytes.get st.p.domains.(v) k = '\001'

  let remove st v k =
    if alive st v k then begin
      Bytes.set st.p.domains.(v) k '\000';
      st.p.dom_size.(v) <- st.p.dom_size.(v) - 1;
      Stack.push (v, k) st.trail;
      if st.p.dom_size.(v) = 0 then raise Inconsistent
    end

  let enqueue st c =
    if Bytes.get st.in_queue c = '\000' then begin
      Bytes.set st.in_queue c '\001';
      Queue.add c st.queue
    end

  let enqueue_var st v = List.iter (enqueue st) st.var_cons.(v)

  let revise st ci =
    st.revisions <- st.revisions + 1;
    let scope, tuples = st.cons.(ci) in
    let arity = Array.length scope in
    let supported = Array.map (fun v -> Bytes.make st.p.counts.(v) '\000') scope in
    let any_alive = ref false in
    Array.iter
      (fun tuple ->
        let ok = ref true in
        for pos = 0 to arity - 1 do
          if !ok && not (alive st scope.(pos) tuple.(pos)) then ok := false
        done;
        if !ok then begin
          any_alive := true;
          for pos = 0 to arity - 1 do
            Bytes.set supported.(pos) tuple.(pos) '\001'
          done
        end)
      tuples;
    if not !any_alive then raise Inconsistent;
    for pos = 0 to arity - 1 do
      let v = scope.(pos) in
      let changed = ref false in
      for k = 0 to st.p.counts.(v) - 1 do
        if alive st v k && Bytes.get supported.(pos) k = '\000' then begin
          remove st v k;
          changed := true
        end
      done;
      if !changed then enqueue_var st v
    done

  let propagate st =
    while not (Queue.is_empty st.queue) do
      let ci = Queue.pop st.queue in
      Bytes.set st.in_queue ci '\000';
      revise st ci
    done

  let rollback st mark =
    while Stack.length st.trail > mark do
      let v, k = Stack.pop st.trail in
      Bytes.set st.p.domains.(v) k '\001';
      st.p.dom_size.(v) <- st.p.dom_size.(v) + 1
    done;
    Queue.clear st.queue;
    Bytes.fill st.in_queue 0 (Bytes.length st.in_queue) '\000'

  let pick_var st =
    let best = ref (-1) and best_size = ref max_int in
    Array.iteri
      (fun v s ->
        if s > 1 && s < !best_size then begin
          best := v;
          best_size := s
        end)
      st.p.dom_size;
    !best

  let extract st =
    Array.mapi
      (fun v c ->
        let rec first k = if alive st v k || k >= c then k else first (k + 1) in
        first 0)
      st.p.counts

  let rec search st =
    st.nodes <- st.nodes + 1;
    if st.nodes > st.node_limit then raise Limit;
    let v = pick_var st in
    if v < 0 then Some (extract st)
    else
      let rec try_values k =
        if k >= st.p.counts.(v) then None
        else if not (alive st v k) then try_values (k + 1)
        else
          let mark = Stack.length st.trail in
          match
            for k' = 0 to st.p.counts.(v) - 1 do
              if k' <> k && alive st v k' then remove st v k'
            done;
            enqueue_var st v;
            propagate st
          with
          | () -> (
              match search st with
              | Some _ as s -> s
              | None ->
                  rollback st mark;
                  try_values (k + 1))
          | exception Inconsistent ->
              rollback st mark;
              try_values (k + 1)
      in
      try_values 0

  (* (result, nodes, revisions) *)
  let solve ~node_limit t =
    let cons = Array.of_list (List.rev t.cons_rev) in
    let var_cons = Array.make (Array.length t.counts) [] in
    Array.iteri
      (fun ci (scope, _) ->
        Array.iter (fun v -> var_cons.(v) <- ci :: var_cons.(v)) scope)
      cons;
    if Array.exists (fun s -> s = 0) t.dom_size then (`Unsat, 0, 0)
    else
      let st =
        {
          p = t;
          cons;
          var_cons;
          trail = Stack.create ();
          in_queue = Bytes.make (Array.length cons) '\000';
          queue = Queue.create ();
          nodes = 0;
          revisions = 0;
          node_limit;
        }
      in
      let result =
        match
          Array.iteri (fun ci _ -> enqueue st ci) st.cons;
          propagate st;
          search st
        with
        | Some a -> `Sat (Array.to_list a)
        | None | (exception Inconsistent) -> `Unsat
        | exception Limit -> `Unknown
      in
      (result, st.nodes, st.revisions)
end

(* A random table CSP from a seed.  One instance in four is "wide":
   domains of up to 80 candidates and tables of up to 150 tuples, so
   multi-word domains and multi-word tables both occur. *)
let random_instance seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let wide = int 4 = 0 in
  let num_vars = 1 + int 6 in
  let counts =
    Array.init num_vars (fun _ -> if wide then 1 + int 80 else 1 + int 5)
  in
  let cons =
    List.init (int 7) (fun _ ->
        let arity = 1 + int (min 3 num_vars) in
        (* Distinct variables, except now and then a repeated one. *)
        let scope =
          Array.init arity (fun _ -> int num_vars)
          |> fun s -> if int 5 = 0 then s else Array.of_list (List.sort_uniq compare (Array.to_list s))
        in
        let ntuples = if wide then int 150 else int 12 in
        let tuples =
          Array.init ntuples (fun _ -> Array.map (fun v -> int counts.(v)) scope)
        in
        (scope, tuples))
  in
  let pins =
    if int 3 = 0 then List.init (1 + int 2) (fun _ ->
        let var = int num_vars in
        (var, int counts.(var)))
    else []
  in
  (counts, cons, pins)

let prop_kernel_matches_reference =
  QCheck2.Test.make ~name:"bitset kernel = tuple-scanning reference" ~count:500
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let counts, cons, pins = random_instance seed in
      (* Every fifth instance runs out of nodes almost at once. *)
      let node_limit = if seed mod 5 = 0 then 3 else 5_000 in
      let r = Reference.create (Array.copy counts) in
      let p = Csp.create ~num_vars:(Array.length counts) ~candidate_counts:counts in
      List.iter
        (fun (scope, tuples) ->
          Reference.add r scope tuples;
          Csp.add_table p ~scope (Csp.compile ~arity:(Array.length scope) tuples))
        cons;
      List.iter
        (fun (var, value) ->
          Reference.pin r var value;
          Csp.pin p ~var ~value)
        pins;
      let want, nodes, revisions = Reference.solve ~node_limit r in
      let got = solve ~node_limit p in
      let s = Csp.last_stats p in
      got = want && s.Csp.nodes = nodes && s.Csp.revisions = revisions)

let prop_tuples_roundtrip =
  QCheck2.Test.make ~name:"compiled tables decode to their tuples" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let _, cons, _ = random_instance seed in
      List.for_all
        (fun (scope, tuples) ->
          Csp.tuples (Csp.compile ~arity:(Array.length scope) tuples) = tuples)
        cons)

(* Range checks at add time: an out-of-range scope variable or tuple
   value is a named [Invalid_argument], not an index error in solve. *)
let test_scope_out_of_range () =
  let p = Csp.create ~num_vars:2 ~candidate_counts:[| 2; 2 |] in
  let tb = Csp.compile ~arity:2 [| [| 0; 1 |] |] in
  Alcotest.check_raises "scope variable checked"
    (Invalid_argument "Csp.add_table: scope variable out of range")
    (fun () -> Csp.add_table p ~scope:[| 0; 2 |] tb);
  Alcotest.check_raises "negative scope variable checked"
    (Invalid_argument "Csp.add_table_constraint: scope variable out of range")
    (fun () ->
      Csp.add_table_constraint p ~scope:[| -1; 0 |] ~tuples:[| [| 0; 0 |] |])

let test_value_out_of_range () =
  let p = Csp.create ~num_vars:2 ~candidate_counts:[| 2; 3 |] in
  Alcotest.check_raises "tuple value checked against the variable"
    (Invalid_argument "Csp.add_table: tuple value out of range")
    (fun () ->
      Csp.add_table p ~scope:[| 0; 1 |] (Csp.compile ~arity:2 [| [| 2; 0 |] |]));
  Alcotest.check_raises "negative tuple value checked"
    (Invalid_argument "Csp.compile: negative tuple value")
    (fun () -> ignore (Csp.compile ~arity:1 [| [| -1 |] |]));
  (* The same table fits once its positions are swapped. *)
  Csp.add_table p ~scope:[| 1; 0 |] (Csp.compile ~arity:2 [| [| 2; 0 |] |]);
  Alcotest.(check bool) "in range solves" true (solve p = `Sat [ 0; 2 ])

let suite =
  ( "csp",
    [
      Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
      Alcotest.test_case "equality chain propagation" `Quick test_equality_chain;
      Alcotest.test_case "unsat by conflict" `Quick test_unsat_by_conflict;
      Alcotest.test_case "empty table" `Quick test_empty_table;
      Alcotest.test_case "empty domain" `Quick test_empty_domain;
      Alcotest.test_case "conflicting pins" `Quick test_conflicting_pins;
      Alcotest.test_case "graph coloring" `Quick test_graph_coloring;
      Alcotest.test_case "ternary table" `Quick test_ternary_constraint;
      Alcotest.test_case "node limit" `Quick test_node_limit;
      Alcotest.test_case "solver reuse" `Quick test_reusable_solver;
      Alcotest.test_case "statistics" `Quick test_stats;
      Alcotest.test_case "arity checking" `Quick test_arity_mismatch;
      Alcotest.test_case "scope range checking" `Quick test_scope_out_of_range;
      Alcotest.test_case "value range checking" `Quick test_value_out_of_range;
      QCheck_alcotest.to_alcotest prop_kernel_matches_reference;
      QCheck_alcotest.to_alcotest prop_tuples_roundtrip;
    ] )
