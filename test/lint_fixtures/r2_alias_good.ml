module H = Hashtbl
module Proj_tbl = Hashtbl.Make (Int)

let keys tbl = H.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare

let projs tbl =
  List.sort Int.compare (Proj_tbl.fold (fun k _ acc -> k :: acc) tbl [])

let total tbl = Proj_tbl.fold (fun _ v acc -> acc + v) tbl 0
