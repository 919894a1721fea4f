let src = Logs.Src.create "speedup.solver" ~doc:"Simplicial-map search"

module Log = (val Logs.src_log src : Logs.LOG)

type verdict = Solvable of Simplicial_map.t | Unsolvable | Undecided

let is_solvable = function
  | Solvable _ -> true
  | Unsolvable | Undecided -> false

(* Stage 1, the layout: protocol vertices become CSP variables,
   numbered in allocation order (input by input, each input's vertices
   in [Complex.vertices] order), and every protocol facet becomes a
   (color set, scope) pair.  Nothing here reads Δ. *)

type layout = {
  vars : Vertex.t array;  (* variable [k] is [vars.(k)] *)
  inputs : (int list * int array) list list;
      (* per input, its protocol facets as (color set, variable scope) *)
}

let layout protocols =
  let var_of = Vertex.Tbl.create 256 and vars = ref [] in
  let var_id v =
    match Vertex.Tbl.find_opt var_of v with
    | Some id -> id
    | None ->
        let id = Vertex.Tbl.length var_of in
        Vertex.Tbl.add var_of v id;
        vars := v :: !vars;
        id
  in
  let inputs =
    List.map
      (fun p ->
        List.iter (fun v -> ignore (var_id v)) (Complex.vertices p);
        List.map
          (fun facet ->
            ( Simplex.ids facet,
              Array.of_list (List.map var_id (Simplex.vertices facet)) ))
          (Complex.facets p))
      protocols
  in
  { vars = Array.of_list (List.rev !vars); inputs }

(* Stage 2, the CSP: output vertices of a variable's color become its
   candidates (all Δ vertices, input by input, in vertex order), then
   one table constraint per protocol facet.  The allowed tuples depend
   only on Δ(σ') and the facet's color set, and every candidate is
   registered before the first table, so each table is built once per
   (input, color set) and the same array is shared by every facet with
   that color set.  A witness maps [vertex layout.vars.(k)] to the
   image of variable [k]: [vertex] names the protocol vertex a layout
   variable stands for. *)

let solve ?node_limit ?should_stop ~vertex layout deltas =
  let cand_of : (int, int Vertex.Tbl.t * Vertex.t list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let color_tables color =
    match Hashtbl.find_opt cand_of color with
    | Some c -> c
    | None ->
        let c = (Vertex.Tbl.create 64, ref []) in
        Hashtbl.add cand_of color c;
        c
  in
  let cand_index v =
    let t, l = color_tables (Vertex.color v) in
    match Vertex.Tbl.find_opt t v with
    | Some k -> k
    | None ->
        let k = Vertex.Tbl.length t in
        Vertex.Tbl.add t v k;
        l := v :: !l;
        k
  in
  List.iter
    (fun d -> List.iter (fun v -> ignore (cand_index v)) (Complex.vertices d))
    deltas;
  let num_vars = Array.length layout.vars in
  let counts =
    Array.map
      (fun v -> Vertex.Tbl.length (fst (color_tables (Vertex.color v))))
      layout.vars
  in
  let csp = Csp.create ~num_vars ~candidate_counts:counts in
  List.iter2
    (fun facets d ->
      let by_colors = Hashtbl.create 8 in
      let table_for colors =
        match Hashtbl.find_opt by_colors colors with
        | Some tuples -> tuples
        | None ->
            let tuples =
              Array.of_list
                (List.map
                   (fun s ->
                     Array.of_list (List.map cand_index (Simplex.vertices s)))
                   (Complex.simplices_with_ids colors d))
            in
            Hashtbl.add by_colors colors tuples;
            tuples
      in
      List.iter
        (fun (colors, scope) ->
          Csp.add_table_constraint csp ~scope ~tuples:(table_for colors))
        facets)
    layout.inputs deltas;
  let result = Csp.solve ?node_limit ?should_stop csp in
  Log.debug (fun m ->
      let stats = Csp.last_stats csp in
      m "instance: %d inputs, %d variables; search: %d nodes, %d revisions"
        (List.length deltas) num_vars stats.Csp.nodes stats.Csp.revisions);
  match result with
  | Csp.Unsat -> Unsolvable
  | Csp.Unknown -> Undecided
  | Csp.Sat assignment ->
      let cands = Hashtbl.create 16 in
      let candidates color =
        match Hashtbl.find_opt cands color with
        | Some arr -> arr
        | None ->
            let arr = Array.of_list (List.rev !(snd (color_tables color))) in
            Hashtbl.add cands color arr;
            arr
      in
      Solvable
        (Simplicial_map.of_assoc
           (List.mapi
              (fun k v ->
                (vertex v, (candidates (Vertex.color v)).(assignment.(k))))
              (Array.to_list layout.vars)))

let decide ?node_limit ?should_stop ~inputs ~protocol ~delta () =
  (* The per-input protocol complexes and Δ images are independent and
     often the dominant cost (protocol complexes grow exponentially in
     rounds), so they fan out across the domain pool.  The layout and
     the CSP are built sequentially, in input order, so variable and
     candidate numbering — and hence the whole search — is identical
     at every job count. *)
  let pairs = Pool.map (fun sigma -> (protocol sigma, delta sigma)) inputs in
  solve ?node_limit ?should_stop ~vertex:Fun.id
    (layout (List.map fst pairs))
    (List.map snd pairs)

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

(* ---- local tasks: one layout per (operator, color set) ---- *)

type layout_key = string * Value.t list

(* Ξ₁(τ') depends on τ's values only through the relabeling χ, so the
   layout of Π_{τ,σ} — built from the first τ seen with a given key and
   color set — serves every later τ: [Vertex.compare] orders one color
   set's vertices by color, seen-id list and box output, never by τ's
   values, so variable numbering, scopes and facet order coincide and
   χ maps τ₀'s variables onto τ's.  Entries are pure functions of their
   keys up to that relabeling: when two domains race on a miss, the
   first insert stands and both instantiate the same layout.  Probe
   under the lock, build outside it, insert under it. *)
module Layout_tbl = Hashtbl.Make (struct
  type t = layout_key * int list

  let equal ((op, alphas), ids) ((op', alphas'), ids') =
    String.equal op op'
    && List.equal Value.equal alphas alphas'
    && List.equal Int.equal ids ids'

  let hash ((op, alphas), ids) = Hashtbl.hash (op, List.map Value.hash alphas, ids)
end)

let layouts_lock = Mutex.create ()

let layouts : (Simplex.t * layout) Layout_tbl.t = Layout_tbl.create 64
[@@lint.allow "R1: every access is under layouts_lock (see comment above)"]

let layout_hits = Atomic.make 0

type layout_stats = { layouts : int; layout_hits : int }

let layout_stats () =
  {
    layouts = Mutex.protect layouts_lock (fun () -> Layout_tbl.length layouts);
    layout_hits = Atomic.get layout_hits;
  }

(* The layout of τ's faces under [key], and the relabeling χ from the
   τ₀ it was built from onto τ. *)
let instantiate key ~one_round tau =
  let key = (key, Simplex.ids tau) in
  let tau0, layout0 =
    match
      Mutex.protect layouts_lock (fun () -> Layout_tbl.find_opt layouts key)
    with
    | Some entry ->
        Atomic.incr layout_hits;
        entry
    | None ->
        let entry =
          ( tau,
            layout
              (List.map
                 (fun tau' -> Complex.of_facets (one_round tau'))
                 (Simplex.faces tau)) )
        in
        Mutex.protect layouts_lock (fun () ->
            match Layout_tbl.find_opt layouts key with
            | Some first -> first
            | None ->
                Layout_tbl.add layouts key entry;
                entry)
  in
  let vertex =
    if Simplex.equal tau0 tau then Fun.id else Model.chi ~from_:tau0 ~to_:tau
  in
  (layout0, vertex)

let layout_protocols key ~one_round tau =
  let layout0, vertex = instantiate key ~one_round tau in
  List.map
    (List.map (fun (_, scope) ->
         Simplex.of_vertices
           (Array.to_list (Array.map (fun k -> vertex layout0.vars.(k)) scope))))
    layout0.inputs

let local_task_solvable ?node_limit ?should_stop ?layout_key ~one_round task
    ~sigma ~tau =
  let local = Local_task.make task ~sigma ~tau in
  let faces = Simplex.faces tau in
  let delta = Task.delta local in
  match layout_key with
  | None ->
      decide ?node_limit ?should_stop ~inputs:faces
        ~protocol:(fun tau' -> Complex.of_facets (one_round tau'))
        ~delta ()
  | Some key ->
      let layout0, vertex = instantiate key ~one_round tau in
      solve ?node_limit ?should_stop ~vertex layout0 (List.map delta faces)
