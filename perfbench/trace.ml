type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  start_ns : int;
  stop_ns : int;
  alloc_w : float;
}

let on = ref false
let set_enabled b = on := b

let recorded : span list ref = ref []
let next_id = ref 0

(* (span id, request id) of the open spans, innermost first. *)
let stack : (int * int) list ref = ref []
let counters : (string, int) Hashtbl.t = Hashtbl.create 16

let reset () =
  recorded := [];
  next_id := 0;
  stack := [];
  Hashtbl.reset counters

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_span ?req name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, inherited =
      match !stack with (p, r) :: _ -> (p, r) | [] -> (-1, -1)
    in
    let req = Option.value req ~default:inherited in
    stack := (id, req) :: !stack;
    let a0 = alloc_words () in
    let t0 = Clock.now_ns () in
    let finish () =
      let t1 = Clock.now_ns () in
      let a1 = alloc_words () in
      stack := List.tl !stack;
      recorded :=
        { id; name; parent; req; start_ns = t0; stop_ns = t1; alloc_w = a1 -. a0 }
        :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let count name n =
  if !on then
    Hashtbl.replace counters name
      (n + Option.value (Hashtbl.find_opt counters name) ~default:0)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0

let spans () =
  List.sort (fun a b -> Int.compare a.start_ns b.start_ns) !recorded

let children_of spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent
          (s :: Option.value (Hashtbl.find_opt tbl s.parent) ~default:[]))
    spans;
  tbl

let self_ns spans =
  let kids = children_of spans in
  let out = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let cs =
        List.sort
          (fun a b -> Int.compare a.start_ns b.start_ns)
          (Option.value (Hashtbl.find_opt kids s.id) ~default:[])
      in
      (* Union of the children's intervals, clipped to the parent. *)
      let covered, _ =
        List.fold_left
          (fun (acc, reach) c ->
            let lo = max (max c.start_ns reach) s.start_ns in
            let hi = min c.stop_ns s.stop_ns in
            if hi > lo then (acc + (hi - lo), hi) else (acc, max reach hi))
          (0, min_int) cs
      in
      Hashtbl.replace out s.id (s.stop_ns - s.start_ns - covered))
    spans;
  out

type layer = {
  calls : int;
  total_s : float;
  self_s : float;
  alloc_w : float;
  self_alloc_w : float;
}

let by_name spans =
  let self = self_ns spans in
  let kids = children_of spans in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kid_alloc =
        List.fold_left
          (fun a (c : span) -> a +. c.alloc_w)
          0.
          (Option.value (Hashtbl.find_opt kids s.id) ~default:[])
      in
      let l =
        Option.value (Hashtbl.find_opt acc s.name)
          ~default:
            { calls = 0; total_s = 0.; self_s = 0.; alloc_w = 0.; self_alloc_w = 0. }
      in
      Hashtbl.replace acc s.name
        {
          calls = l.calls + 1;
          total_s = l.total_s +. Clock.seconds_between s.start_ns s.stop_ns;
          self_s = l.self_s +. (float_of_int (Hashtbl.find self s.id) *. 1e-9);
          alloc_w = l.alloc_w +. s.alloc_w;
          self_alloc_w = l.self_alloc_w +. s.alloc_w -. kid_alloc;
        })
    spans;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": \"%s\", \"parent\": %d, \"req\": %d, \
         \"start_ns\": %d, \"stop_ns\": %d, \"alloc_w\": %.0f}\n"
        s.id (Jsonl.escape s.name) s.parent s.req s.start_ns s.stop_ns s.alloc_w)
    spans;
  close_out oc
