type request = {
  cls : string;
  meth : string;
  params : (string * Jsonl.t) list;
  key : string;
}

let make cls meth params =
  { cls; meth; params; key = meth ^ " " ^ Jsonl.to_string (Jsonl.Obj params) }

let classes = [ "ping"; "closure"; "solvable"; "equiv"; "complex-stats" ]

(* Task parameters in one canonical order, so a request that appears in
   both grids renders to the same line. *)
let task_params ~task ~n =
  let aa eps = [ ("m", Jsonl.Int 4); ("eps", Jsonl.String eps) ] in
  let name, extra =
    match task with
    | `Consensus -> ("consensus", [])
    | `Relaxed -> ("relaxed-consensus", [])
    | `Set2 -> ("2set", [])
    | `Aa eps -> ("aa", aa eps)
    | `Liberal -> ("liberal-aa", aa "1/4")
  in
  ("task", Jsonl.String name) :: ("n", Jsonl.Int n) :: extra

let closure ?(tas = false) ~model task n =
  make "closure" "closure"
    (task_params ~task ~n
    @ [ ("model", Jsonl.String model) ]
    @ if tas then [ ("tas", Jsonl.Bool true) ] else [])

let solvable task n rounds =
  make "solvable" "solvable"
    (task_params ~task ~n
    @ [ ("rounds", Jsonl.Int rounds); ("model", Jsonl.String "immediate") ])

let equiv lhs rhs n =
  make "equiv" "equiv"
    [ ("lhs", Jsonl.String lhs); ("rhs", Jsonl.String rhs); ("n", Jsonl.Int n) ]

let complex_stats model n rounds =
  make "complex-stats" "complex-stats"
    [ ("model", Jsonl.String model); ("n", Jsonl.Int n); ("rounds", Jsonl.Int rounds) ]

let ping = make "ping" "ping" []

(* Round-robin over the class lists: rank 1 is the first of each class
   in turn, so every class has popular and rare members. *)
let interleave lists =
  let rec go acc lists =
    match List.filter (fun l -> l <> []) lists with
    | [] -> List.rev acc
    | ls -> go (List.rev_append (List.map List.hd ls) acc) (List.map List.tl ls)
  in
  go [] lists

let ns = [ 2; 3 ]

let cold_closures ns =
  List.concat_map
    (fun n ->
      List.map
        (fun t -> closure ~model:"immediate" t n)
        [ `Consensus; `Relaxed; `Set2; `Aa "1/4"; `Liberal ]
      @ [ closure ~tas:true ~model:"immediate" `Consensus n ])
    ns

(* Without aa at n = 3, rounds 2: the solvable path has no in-memory
   memo, so each repeat of that request re-loads and re-verifies a large
   stored solution (about 230 ms on a 2-core host); at its Zipf share
   those repeats took over half of a run and made its wall swing by
   20%. *)
let cold_solvables ns =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun r ->
          [ solvable `Consensus n r; solvable `Relaxed n r ]
          @ if n = 3 && r = 2 then [] else [ solvable (`Aa "1/4") n r ])
        [ 1; 2 ])
    ns

let cold_equivs ns =
  List.concat_map
    (fun n ->
      [ equiv "iis" "snapshot" n; equiv "iis" "collect" n; equiv "snapshot" "collect" n ])
    ns

let cold_stats ns =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun r -> [ complex_stats "immediate" n r; complex_stats "snapshot" n r ])
        [ 1; 2 ])
    ns

type grid = request list

let cold ns =
  interleave [ cold_closures ns; cold_solvables ns; cold_equivs ns; cold_stats ns; [ ping ] ]

let cold_grid = cold ns
let smoke_cold_grid = cold [ 2 ]

(* The atlas cells by task family, each family in (n, model) order,
   interleaved like the cold grid's classes. *)
let family ~ns task =
  List.concat_map
    (fun n -> List.map (fun model -> closure ~model task n) [ "immediate"; "snapshot" ])
    ns

let warm ~max_n =
  let ns = List.filter (fun n -> n <= max_n) [ 2; 3 ] in
  interleave
    [
      family ~ns `Consensus;
      family ~ns `Relaxed;
      family ~ns:(List.filter (fun n -> n = 3) ns) `Set2;
      family ~ns (`Aa "1/2");
      family ~ns (`Aa "1/4");
    ]

let warm_grid = warm ~max_n:3
let smoke_warm_grid = warm ~max_n:2

let line ~id r =
  Jsonl.to_string
    (Jsonl.Obj
       [ ("id", Jsonl.Int id); ("method", Jsonl.String r.meth); ("params", Jsonl.Obj r.params) ])

(* SplitMix64: a fixed, documented generator, so a seed means the same
   request sequence on every OCaml version. *)
type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int seed }

let next64 g =
  g.state <- Int64.add g.state 0x9E3779B97F4A7C15L;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_float g =
  Int64.to_float (Int64.shift_right_logical (next64 g) 11) *. 0x1p-53

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int_of_float (next_float g *. float_of_int (i + 1)) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let zipf_s = 1.

(* How many of [m] requests each rank gets under Zipf with exponent
   [s]: the floor of its share, the remainder to the largest fractional
   parts (ties to the better rank).  Fixed for given [s], [k] and [m]. *)
let zipf_counts ~s k m =
  let weight r = Float.pow (float_of_int r) (-.s) in
  let h = ref 0. in
  for r = 1 to k do
    h := !h +. weight r
  done;
  let share r = float_of_int m *. weight r /. !h in
  let counts = Array.init k (fun i -> int_of_float (share (i + 1))) in
  let left = m - Array.fold_left ( + ) 0 counts in
  let by_remainder =
    List.sort
      (fun (fa, ia) (fb, ib) -> match Float.compare fb fa with 0 -> Int.compare ia ib | c -> c)
      (List.init k (fun i -> (share (i + 1) -. float_of_int counts.(i), i)))
  in
  List.iteri (fun j (_, i) -> if j < left then counts.(i) <- counts.(i) + 1) by_remainder;
  counts

let draw ~seed grid n =
  let base = Array.of_list grid in
  let k = Array.length base in
  if n < k then invalid_arg "Draw.draw: fewer requests than grid entries";
  let g = rng seed in
  let counts = zipf_counts ~s:zipf_s k (n - k) in
  let rest = Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c base.(i)) counts)) in
  shuffle g rest;
  Array.append base rest
