let cache_key : (int, int) Hashtbl.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Hashtbl.create 16)
let lookup k = Hashtbl.find_opt (Domain.DLS.get cache_key) k

let allowed_key : (int, int) Hashtbl.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Hashtbl.create 16)
[@@lint.allow "R1: per-domain cache, only its own domain reads or writes it"]

let lookup_allowed k = Hashtbl.find_opt (Domain.DLS.get allowed_key) k
