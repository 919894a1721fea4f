(* R7 fixture: every access of the shared cell holds the same mutex,
   through three idioms — Mutex.protect, a top-level alias of the lock,
   and Mutex.lock + Fun.protect.  The local Pool stub is recognized by
   the same dot-boundary suffix match as the real lib/parallel pool. *)
module Pool = struct
  let map f l = List.map f l
end

let lock = Mutex.create ()
let lock_alias = lock
let counter = ref 0
let protected_incr () = Mutex.protect lock (fun () -> incr counter)
let aliased_read () = Mutex.protect lock_alias (fun () -> !counter)

let locked_add n =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () -> counter := !counter + n)

let run xs = Pool.map (fun x -> protected_incr (); x + aliased_read ()) xs
let total () = locked_add 1

(* A type-annotated cell is a cell; a parameter that shadows it is not
   an access to it; a local callback passed by name to Mutex.protect
   runs with the lock held; a Hashtbl.Make instance of any name is a
   table. *)
let memo : (int, int) Hashtbl.t = Hashtbl.create 8
let probe k = Mutex.protect lock (fun () -> Hashtbl.find_opt memo k)
let cached ?(memo = true) k = if memo then probe k else None

let store k v =
  let insert () = Hashtbl.replace memo k v in
  Mutex.protect lock insert

module Keyed = Hashtbl.Make (Int)

let keyed = Keyed.create 8
let mark k = Mutex.protect lock (fun () -> Keyed.replace keyed k ())
