let src = Logs.Src.create "speedup.solver" ~doc:"Simplicial-map search"

module Log = (val Logs.src_log src : Logs.LOG)

type verdict = Solvable of Simplicial_map.t | Unsolvable | Undecided

let is_solvable = function
  | Solvable _ -> true
  | Unsolvable | Undecided -> false

(* Variable and candidate bookkeeping: protocol vertices become CSP
   variables; output vertices of the same color become candidates. *)

type tables = {
  var_of : int Vertex.Tbl.t;
  mutable vars : Vertex.t list;  (* reverse order of allocation *)
  mutable num_vars : int;
  cand_of : (int, int Vertex.Tbl.t) Hashtbl.t;  (* color -> vertex -> index *)
  cands : (int, Vertex.t list ref) Hashtbl.t;   (* color -> reverse list *)
}

let fresh_tables () =
  {
    var_of = Vertex.Tbl.create 256;
    vars = [];
    num_vars = 0;
    cand_of = Hashtbl.create 16;
    cands = Hashtbl.create 16;
  }

let var_id tb v =
  match Vertex.Tbl.find_opt tb.var_of v with
  | Some id -> id
  | None ->
      let id = tb.num_vars in
      Vertex.Tbl.add tb.var_of v id;
      tb.vars <- v :: tb.vars;
      tb.num_vars <- id + 1;
      id

let color_tables tb color =
  match Hashtbl.find_opt tb.cand_of color with
  | Some t -> (t, Hashtbl.find tb.cands color)
  | None ->
      let t = Vertex.Tbl.create 64 and l = ref [] in
      Hashtbl.add tb.cand_of color t;
      Hashtbl.add tb.cands color l;
      (t, l)

let cand_index tb v =
  let t, l = color_tables tb (Vertex.color v) in
  match Vertex.Tbl.find_opt t v with
  | Some k -> k
  | None ->
      let k = Vertex.Tbl.length t in
      Vertex.Tbl.add t v k;
      l := v :: !l;
      k

let decide ?node_limit ?should_stop ~inputs ~protocol ~delta () =
  let tb = fresh_tables () in
  (* Pass 1a: build the per-input protocol complexes and Δ images.
     These are independent and often the dominant cost (protocol
     complexes grow exponentially in rounds), so the pass fans out
     across the domain pool.  Registration stays sequential below, in
     input order, so variable and candidate numbering — and hence the
     whole CSP search — is identical at every job count. *)
  let pairs = Pool.map (fun sigma -> (protocol sigma, delta sigma)) inputs in
  (* Pass 1b: register candidates (all Δ vertices) and variables (all
     protocol vertices). *)
  let raw =
    List.map
      (fun (p, d) ->
        List.iter (fun v -> ignore (cand_index tb v)) (Complex.vertices d);
        List.iter (fun v -> ignore (var_id tb v)) (Complex.vertices p);
        (p, d))
      pairs
  in
  let counts = Array.make tb.num_vars 0 in
  List.iter
    (fun v ->
      let id = Vertex.Tbl.find tb.var_of v in
      let t, _ = color_tables tb (Vertex.color v) in
      counts.(id) <- Vertex.Tbl.length t)
    tb.vars;
  let csp = Csp.create ~num_vars:tb.num_vars ~candidate_counts:counts in
  (* Pass 2: one table constraint per protocol facet.  The allowed
     tuples depend only on Δ(σ') and the facet's color set, and pass 1b
     has already registered every candidate, so each table is built
     once per (input, color set) and the same array is shared by every
     facet with that color set. *)
  List.iter
    (fun (p, d) ->
      let by_colors = Hashtbl.create 8 in
      let table_for colors =
        match Hashtbl.find_opt by_colors colors with
        | Some tuples -> tuples
        | None ->
            let tuples =
              Array.of_list
                (List.map
                   (fun s ->
                     Array.of_list
                       (List.map (fun w -> cand_index tb w) (Simplex.vertices s)))
                   (Complex.simplices_with_ids colors d))
            in
            Hashtbl.add by_colors colors tuples;
            tuples
      in
      List.iter
        (fun facet ->
          let scope =
            Array.of_list
              (List.map (fun v -> Vertex.Tbl.find tb.var_of v) (Simplex.vertices facet))
          in
          Csp.add_table_constraint csp ~scope ~tuples:(table_for (Simplex.ids facet)))
        (Complex.facets p))
    raw;
  let result = Csp.solve ?node_limit ?should_stop csp in
  Log.debug (fun m ->
      let stats = Csp.last_stats csp in
      m "instance: %d inputs, %d variables; search: %d nodes, %d revisions"
        (List.length inputs) tb.num_vars stats.Csp.nodes stats.Csp.revisions);
  match result with
  | Csp.Unsat -> Unsolvable
  | Csp.Unknown -> Undecided
  | Csp.Sat assignment ->
      (* Rebuild the vertex-level map from candidate indices. *)
      let cand_arrays = Hashtbl.create 16 in
      (Hashtbl.iter
         (fun color l ->
           let arr = Array.of_list (List.rev !l) in
           Hashtbl.add cand_arrays color arr)
         tb.cands
       [@lint.allow "R2: builds a key-indexed copy; iteration order is irrelevant"]);
      let pairs =
        List.map
          (fun v ->
            let id = Vertex.Tbl.find tb.var_of v in
            let arr = Hashtbl.find cand_arrays (Vertex.color v) in
            (v, arr.(assignment.(id))))
          tb.vars
      in
      Solvable (Simplicial_map.of_assoc pairs)

let task_in_model ?node_limit ?should_stop ?inputs model task ~rounds =
  let inputs =
    match inputs with Some l -> l | None -> Task.input_simplices task
  in
  let compute () =
    decide ?node_limit ?should_stop ~inputs
      ~protocol:(fun sigma -> Model.protocol_complex model sigma rounds)
      ~delta:(Task.delta task) ()
  in
  if not (Cert_store.enabled () && Cert_registry.known_task task.Task.name)
  then compute ()
  else
    let model_name = Model.name model in
    let env =
      {
        Cert.task_of_name =
          (fun n -> if n = task.Task.name then Some task else None);
        facets_of_op = (fun _ -> None);
        protocol_of_model =
          (fun n ->
            if n = model_name then Some (Model.protocol_complex model) else None);
      }
    in
    let solution verdict map =
      Cert.Solution
        { model_name; task_name = task.Task.name; rounds; inputs; verdict; map }
    in
    Cert.cached ~env
      (Cert.Q_solve { model_name; task_name = task.Task.name; rounds; inputs })
      (function
        | Cert.Solution { verdict = true; map = Some f; _ } -> Some (Solvable f)
        | Cert.Solution { verdict = false; _ } -> Some Unsolvable
        | _ -> None)
      ~compute
      ~certify:(function
        | Solvable f -> Some (solution true (Some f))
        | Unsolvable -> Some (solution false None)
        | Undecided -> None)

let task_in_augmented ?node_limit ?should_stop ?inputs ~box ~alpha task ~rounds =
  let inputs =
    match inputs with Some l -> l | None -> Task.input_simplices task
  in
  decide ?node_limit ?should_stop ~inputs
    ~protocol:(fun sigma -> Augmented.protocol_complex ~box ~alpha sigma rounds)
    ~delta:(Task.delta task) ()

let min_rounds ?node_limit ?inputs ?(max_rounds = 6) model task =
  let rec scan t =
    if t > max_rounds then None
    else
      match task_in_model ?node_limit ?inputs model task ~rounds:t with
      | Solvable _ -> Some t
      | Unsolvable -> scan (t + 1)
      | Undecided -> None
  in
  scan 0

let local_task_solvable ?node_limit ?should_stop ~one_round task ~sigma ~tau =
  let local = Local_task.make task ~sigma ~tau in
  decide ?node_limit ?should_stop
    ~inputs:(Simplex.faces tau)
    ~protocol:(fun tau' -> Complex.of_facets (one_round tau'))
    ~delta:(Task.delta local) ()
