(* R7 fixture: two seeded violations — a cell accessed with no lock at
   all, and a cell guarded by a different mutex on each path. *)
module Pool = struct
  let map f l = List.map f l
end

let lock_a = Mutex.create ()
let lock_b = Mutex.create ()
let unguarded = ref 0
let split = ref 0
let bump () = incr unguarded
let under_a () = Mutex.protect lock_a (fun () -> incr split)
let under_b () = Mutex.protect lock_b (fun () -> split := !split + 1)
let run xs = Pool.map (fun x -> bump (); under_a (); under_b (); x) xs

(* A local callback that is also called directly gets no lock credit;
   an unguarded Hashtbl.Make instance is a cell like any other. *)
let twice = ref 0

let leaky () =
  let bump_twice () = incr twice in
  Mutex.protect lock_a bump_twice;
  bump_twice ()

module Keyed = Hashtbl.Make (Int)

let keyed = Keyed.create 8
let touch () = Keyed.replace keyed 1 ()
