(* Stand-in for lib/topology's Simplex, compiled before the fixtures
   that name it: only the values they use. *)
type t = int list

let card (s : t) = List.length s
let compare (a : t) (b : t) = List.compare Int.compare a b
