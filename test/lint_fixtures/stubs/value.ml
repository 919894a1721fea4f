(* Stand-in for lib/topology's interned Value, compiled before the
   fixtures that name it: only the values they use. *)
type t = Unit | Int of int | Pair of t * t | View of (int * t) list

let pair a b = Pair (a, b)
let view l = View l
let view_ids = function View l -> List.map fst l | _ -> []
let compare (a : t) (b : t) = Stdlib.compare a b
let equal a b = compare a b = 0
let hash (v : t) = Hashtbl.hash v
let to_string (_ : t) = "()"
