module H = Hashtbl
module Proj_tbl = Hashtbl.Make (Int)

let keys tbl = H.fold (fun k _ acc -> k :: acc) tbl []
let projs tbl = Proj_tbl.fold (fun k _ acc -> k :: acc) tbl []
