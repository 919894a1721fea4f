(** The benchmark's only clock: CLOCK_MONOTONIC.  It never steps, and
    it is system-wide, so timestamps taken by a child process compare
    with the parent's. *)

val now_ns : unit -> int
val now_s : unit -> float

val seconds_between : int -> int -> float
(** [seconds_between a b] is [b - a] nanoseconds in seconds. *)
