(* Stand-in for lib/models/algebra's interned Algebra terms, compiled
   before the fixtures that name it: only the values they use. *)
type t = Iis | Inter of t list

let iis = Iis
let inter ts = Inter ts
let parse s = if s = "iis" then Ok Iis else Error s
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let to_string (_ : t) = "iis"
let interned_nodes () = 0
let allows_solo (_ : t) (_ : Simplex.t) = true
