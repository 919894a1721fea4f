let is_valid_tau task ~sigma ~tau =
  Simplex.ids tau = Simplex.ids sigma
  &&
  let d = Task.delta task sigma in
  List.for_all (fun v -> Complex.mem_vertex v d) (Simplex.vertices tau)

let make task ~sigma ~tau =
  if not (is_valid_tau task ~sigma ~tau) then
    invalid_arg "Local_task.make: tau is not a chromatic set of V(Delta(sigma))";
  (* The larger faces read the task's memoized projections of Δ(σ),
     which do not depend on τ: every candidate τ of one σ shares them. *)
  let delta tau' =
    match Simplex.vertices tau' with
    | [ v ] -> Complex.of_simplex (Simplex.singleton v)
    | _ -> Task.delta_proj task sigma (Simplex.ids tau')
  in
  Task.make
    ~name:(Printf.sprintf "local(%s)" task.Task.name)
    ~arity:task.Task.arity
    ~inputs:(lazy (Complex.of_simplex tau))
    ~outputs:(lazy (Task.delta task sigma))
    ~delta
