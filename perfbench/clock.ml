external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

let now_s () = float_of_int (now_ns ()) *. 1e-9
let seconds_between a b = float_of_int (b - a) *. 1e-9
