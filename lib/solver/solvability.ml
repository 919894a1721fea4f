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

(* Stage 2, the CSP: one table constraint per protocol facet, or a pin
   per facet of an input whose Δ is a single vertex.  [candidates c]
   lists the output vertices variables of color [c] may take (the CSP
   value [k] is [(candidates c).(k)]), and each input's rule gives its
   tables by facet color set.  A witness maps
   [vertex layout.vars.(k)] to the image of variable [k]: [vertex]
   names the protocol vertex a layout variable stands for. *)

type rule = Pin of int | Tables of (int list -> Csp.table)

let solve ?node_limit ?should_stop ~vertex ~candidates layout rules =
  let num_vars = Array.length layout.vars in
  let counts =
    Array.map (fun v -> Array.length (candidates (Vertex.color v))) layout.vars
  in
  let csp = Csp.create ~num_vars ~candidate_counts:counts in
  List.iter2
    (fun facets rule ->
      List.iter
        (fun (colors, scope) ->
          match rule with
          | Pin value -> Array.iter (fun var -> Csp.pin csp ~var ~value) scope
          | Tables table -> Csp.add_table csp ~scope (table colors))
        facets)
    layout.inputs rules;
  let result = Csp.solve ?node_limit ?should_stop csp in
  Log.debug (fun m ->
      let stats = Csp.last_stats csp in
      m "instance: %d inputs, %d variables; search: %d nodes, %d revisions"
        (List.length rules) num_vars stats.Csp.nodes stats.Csp.revisions);
  match result with
  | Csp.Unsat -> Unsolvable
  | Csp.Unknown -> Undecided
  | Csp.Sat assignment ->
      Solvable
        (Simplicial_map.of_assoc
           (List.mapi
              (fun k v ->
                (vertex v, (candidates (Vertex.color v)).(assignment.(k))))
              (Array.to_list layout.vars)))

(* The table of a facet with color set [colors] over the output
   complex [d]: its simplices with exactly those colors, as candidate
   ids. *)
let compile_table ~id colors d =
  Csp.compile ~arity:(List.length colors)
    (Array.of_list
       (List.map
          (fun s -> Array.of_list (List.map id (Simplex.vertices s)))
          (Complex.simplices_with_ids colors d)))

(* The allowed tuples depend only on the output complex and the facet's
   color set, so each is compiled once per (input, color set) and
   shared by every facet with that color set. *)
let per_colors table =
  let by_colors = Hashtbl.create 8 in
  fun colors ->
    match Hashtbl.find_opt by_colors colors with
    | Some tb -> tb
    | None ->
        let tb = table colors in
        Hashtbl.add by_colors colors tb;
        tb

(* Candidates of each color: every vertex of the output complexes,
   input by input, in vertex order. *)
let register deltas =
  let by_color = Hashtbl.create 8 in
  let color_table c =
    match Hashtbl.find_opt by_color c with
    | Some e -> e
    | None ->
        let e = (Vertex.Tbl.create 64, ref []) in
        Hashtbl.add by_color c e;
        e
  in
  List.iter
    (fun d ->
      List.iter
        (fun v ->
          let ids, order = color_table (Vertex.color v) in
          if not (Vertex.Tbl.mem ids v) then begin
            Vertex.Tbl.add ids v (Vertex.Tbl.length ids);
            order := v :: !order
          end)
        (Complex.vertices d))
    deltas;
  let arrays = Hashtbl.create 8 in
  let candidates c =
    match Hashtbl.find_opt arrays c with
    | Some a -> a
    | None ->
        let a = Array.of_list (List.rev !(snd (color_table c))) in
        Hashtbl.add arrays c a;
        a
  in
  let id v = Vertex.Tbl.find (fst (color_table (Vertex.color v))) v in
  (id, candidates)

let decide ?node_limit ?should_stop ~inputs ~protocol ~delta () =
  (* The per-input protocol complexes and Δ images are independent and
     often the dominant cost (protocol complexes grow exponentially in
     rounds), so they fan out across the domain pool.  The layout and
     the CSP are built sequentially, in input order, so variable and
     candidate numbering — and hence the whole search — is identical
     at every job count. *)
  let pairs = Pool.map (fun sigma -> (protocol sigma, delta sigma)) inputs in
  let deltas = List.map snd pairs in
  let id, candidates = register deltas in
  solve ?node_limit ?should_stop ~vertex:Fun.id ~candidates
    (layout (List.map fst pairs))
    (List.map (fun d -> Tables (per_colors (fun colors -> compile_table ~id colors d))) deltas)

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

(* ---- local tasks: one index per σ ---- *)

(* Everything the local tasks Π_{τ,σ} of one σ share.  For τ with two
   or more vertices, Δ_{τ,σ} is Δ(σ) on τ itself ([Simplex.faces]
   yields τ first) and its projection onto ID(τ') on every other face
   τ' with two or more colors, whatever τ is; on a vertex it is the
   vertex, a vertex of Δ(σ).  Registering the faces' Δ in order
   therefore numbers the candidates of color i as
   [Complex.vertices_of_color i Δ(σ)] for every such τ, and each
   face's table is a function of σ and the face's colors alone.  (A
   one-vertex τ would register only itself, but its one face is solo
   and pinned, so the extra candidates change neither verdict nor
   witness.)  The index holds those candidates, their ids, and the
   compiled table of each face ids F (|F| ≥ 2) for facets colored F.
   It is built before a fan-out and only read after. *)
type index = {
  task : Task.t;
  sigma : Simplex.t;
  cands : Vertex.t array array;  (* by color; [||] off ID(σ) *)
  ids : int Vertex.Tbl.t;
  tables : (int list * Csp.table) list;  (* by face ids *)
}

let index_tables_built = Atomic.make 0

let index task sigma =
  let d = Task.delta task sigma in
  let colors = Simplex.ids sigma in
  let cands = Array.make (1 + List.fold_left Int.max 0 colors) [||] in
  let ids = Vertex.Tbl.create 64 in
  List.iter
    (fun c ->
      let vs = Array.of_list (Complex.vertices_of_color c d) in
      Array.iteri (fun k v -> Vertex.Tbl.add ids v k) vs;
      cands.(c) <- vs)
    colors;
  let id = Vertex.Tbl.find ids in
  let tables =
    List.filter_map
      (fun face ->
        if Simplex.card face < 2 then None
        else
          let f = Simplex.ids face in
          Atomic.incr index_tables_built;
          Some (f, compile_table ~id f (Task.delta_proj task sigma f)))
      (Simplex.faces sigma)
  in
  { task; sigma; cands; ids; tables }

let index_candidates ix c = if c < Array.length ix.cands then ix.cands.(c) else [||]

let index_tables ix = List.map (fun (f, tb) -> (f, Csp.tuples tb)) ix.tables

(* The rule of face τ': a vertex pins its facets' variables to itself;
   a larger face reads its table from the index, and compiles the
   table of a facet colored by a proper subset of its colors (a
   non-pure protocol complex) once per call. *)
let face_rule ix face =
  match Simplex.vertices face with
  | [ v ] -> Pin (Vertex.Tbl.find ix.ids v)
  | _ ->
      let f = Simplex.ids face in
      let full = List.assoc f ix.tables in
      let others =
        lazy
          (per_colors (fun colors ->
               compile_table ~id:(Vertex.Tbl.find ix.ids) colors
                 (Task.delta_proj ix.task ix.sigma f)))
      in
      Tables
        (fun colors ->
          if List.equal Int.equal colors f then full else Lazy.force others colors)

let local_task_solvable ?node_limit ?should_stop ?layout_key ?index:ix
    ~one_round task ~sigma ~tau =
  let ix = match ix with Some ix -> ix | None -> index task sigma in
  if
    not
      (List.equal Int.equal (Simplex.ids tau) (Simplex.ids sigma)
      && List.for_all (Vertex.Tbl.mem ix.ids) (Simplex.vertices tau))
  then
    invalid_arg
      "Solvability.local_task_solvable: tau is not a chromatic set of V(Delta(sigma))";
  let faces = Simplex.faces tau in
  let layout, vertex =
    match layout_key with
    | None ->
        (layout (List.map (fun tau' -> Complex.of_facets (one_round tau')) faces), Fun.id)
    | Some key -> instantiate key ~one_round tau
  in
  solve ?node_limit ?should_stop ~vertex ~candidates:(index_candidates ix) layout
    (List.map (face_rule ix) faces)

type stats = { layouts : int; layout_hits : int; index_tables : int }

let stats () =
  {
    layouts = Mutex.protect layouts_lock (fun () -> Layout_tbl.length layouts);
    layout_hits = Atomic.get layout_hits;
    index_tables = Atomic.get index_tables_built;
  }
