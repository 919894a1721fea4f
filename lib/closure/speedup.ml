type setting = {
  name : string;
  protocol_fn : Simplex.t -> int -> Complex.t;
  solo_extend : round:int -> Vertex.t -> Vertex.t;
  closure_op_fn : rounds:int -> Round_op.t;
}

let setting_name s = s.name
let protocol s = s.protocol_fn
let closure_op s ~rounds = s.closure_op_fn ~rounds

let of_model model =
  {
    name = Model.name model;
    protocol_fn = (fun sigma t -> Model.protocol_complex model sigma t);
    solo_extend =
      (fun ~round:_ v ->
        Vertex.make (Vertex.color v) (Model.solo_view (Vertex.color v) (Vertex.value v)));
    closure_op_fn = (fun ~rounds:_ -> Round_op.plain model);
  }

let of_box box alpha name =
  {
    name;
    protocol_fn = (fun sigma t -> Augmented.protocol_complex ~box ~alpha sigma t);
    solo_extend =
      (fun ~round v ->
        let i = Vertex.color v in
        let view = Vertex.value v in
        let b = Black_box.solo_output box i (alpha ~round i view) in
        Vertex.make i (Value.pair b (Model.solo_view i view)));
    closure_op_fn =
      (fun ~rounds -> Round_op.augmented ~box ~alpha ~round:rounds);
  }

let of_test_and_set =
  of_box Black_box.test_and_set
    (Augmented.alpha_const Value.Unit)
    "immediate+test&set"

let of_bin_consensus_beta beta =
  let alpha ~round i _view = Value.Bool (beta ~round i) in
  of_box Black_box.bin_consensus alpha "immediate+bin-consensus(beta_r)"

type report = {
  base : Solvability.verdict;
  construction_valid : bool;
  closure_direct : Solvability.verdict;
}

let speedup_holds r =
  match r.base with
  | Solvability.Unsolvable -> true
  | Solvability.Undecided -> false
  | Solvability.Solvable _ ->
      r.construction_valid && Solvability.is_solvable r.closure_direct

let derive_map setting ~task ~rounds ~inputs ~f =
  ignore task;
  let vertices =
    List.fold_left
      (fun acc sigma ->
        List.fold_left
          (fun acc v -> Vertex.Set.add v acc)
          acc
          (Complex.vertices (setting.protocol_fn sigma (rounds - 1))))
      Vertex.Set.empty inputs
  in
  Simplicial_map.of_fun (Vertex.Set.elements vertices) (fun v ->
      Simplicial_map.apply f (setting.solo_extend ~round:rounds v))

let verify ?node_limit ?memo setting task ~rounds ~inputs =
  if rounds < 1 then invalid_arg "Speedup.verify: rounds must be >= 1";
  let base =
    Solvability.decide ?node_limit ~inputs
      ~protocol:(fun sigma -> setting.protocol_fn sigma rounds)
      ~delta:(Task.delta task) ()
  in
  let op = setting.closure_op_fn ~rounds in
  let closure_delta = Closure.delta ?node_limit ?memo ~op task in
  let check f =
    let closure_direct =
      Solvability.decide ?node_limit ~inputs
        ~protocol:(fun sigma -> setting.protocol_fn sigma (rounds - 1))
        ~delta:closure_delta ()
    in
    let f' = derive_map setting ~task ~rounds ~inputs ~f in
    let construction_valid =
      List.for_all
        (fun sigma ->
          let p = setting.protocol_fn sigma (rounds - 1) in
          let d = closure_delta sigma in
          List.for_all
            (fun facet ->
              match Simplicial_map.apply_simplex f' facet with
              | image -> Complex.mem image d
              | exception (Not_found | Invalid_argument _) -> false)
            (Complex.facets p))
        inputs
    in
    { base; construction_valid; closure_direct }
  in
  match base with
  | Solvability.Unsolvable | Solvability.Undecided ->
      { base; construction_valid = false; closure_direct = base }
  | Solvability.Solvable f -> (
      (* The closure itself is undecided when one of its membership
         searches hits the node limit: neither check can be made. *)
      try check f
      with Closure.Undecided_local_task _ ->
        { base; construction_valid = false; closure_direct = Solvability.Undecided })
