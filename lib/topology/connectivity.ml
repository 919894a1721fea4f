let edges c =
  List.concat_map
    (fun f ->
      let vs = Simplex.vertices f in
      List.concat_map
        (fun v -> List.filter_map (fun w -> if Vertex.compare v w < 0 then Some (v, w) else None) vs)
        vs)
    (Complex.facets c)

(* Neighbour lists of every vertex, built in one pass over the edges so
   a BFS does not rescan the complex on each pop.  A BFS looks up each
   vertex once, so sorting at lookup costs no more than sorting here;
   the sorted order fixes the BFS visiting order. *)
let adjacency c =
  let adj = Vertex.Tbl.create 64 in
  let add v w =
    Vertex.Tbl.replace adj v (w :: Option.value ~default:[] (Vertex.Tbl.find_opt adj v))
  in
  List.iter (fun (a, b) -> add a b; add b a) (edges c);
  fun v ->
    List.sort_uniq Vertex.compare (Option.value ~default:[] (Vertex.Tbl.find_opt adj v))

let neighbors c v = adjacency c v

let path c src dst =
  if Vertex.equal src dst then Some [ src ]
  else
    let neighbors = adjacency c in
    let visited = Vertex.Tbl.create 64 in
    Vertex.Tbl.add visited src src;
    let queue = Queue.create () in
    Queue.add src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun w ->
          if not (Vertex.Tbl.mem visited w) then begin
            Vertex.Tbl.add visited w v;
            if Vertex.equal w dst then found := true else Queue.add w queue
          end)
        (neighbors v)
    done;
    if not !found then None
    else
      let rec back v acc =
        if Vertex.equal v src then src :: acc
        else back (Vertex.Tbl.find visited v) (v :: acc)
      in
      Some (back dst [])

let components c =
  let neighbors = adjacency c in
  let remaining = ref (Vertex.Set.of_list (Complex.vertices c)) in
  let comps = ref [] in
  while not (Vertex.Set.is_empty !remaining) do
    let seed = Vertex.Set.min_elt !remaining in
    let comp = ref Vertex.Set.empty in
    let queue = Queue.create () in
    Queue.add seed queue;
    comp := Vertex.Set.add seed !comp;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun w ->
          if Vertex.Set.mem w !remaining && not (Vertex.Set.mem w !comp) then begin
            comp := Vertex.Set.add w !comp;
            Queue.add w queue
          end)
        (neighbors v)
    done;
    remaining := Vertex.Set.diff !remaining !comp;
    comps := Vertex.Set.elements !comp :: !comps
  done;
  List.rev !comps

let connected c = List.length (components c) <= 1
