(** Child processes: spawn with a controlled environment, wait with a
    deadline, and kill whatever is still running when the benchmark
    exits, so no child outlives a run. *)

val spawn :
  ?env:(string * string) list -> ?unset:string list -> ?stdout:Unix.file_descr ->
  ?stderr:Unix.file_descr -> string -> string list -> int
(** [spawn prog args]: the parent's environment minus [unset], with
    [env] bindings added or replaced.  Standard input is /dev/null;
    unredirected outputs go to the benchmark's stderr (its stdout is
    kept for the result). *)

val wait : ?timeout_s:float -> int -> Unix.process_status
(** Waits for the child; past [timeout_s] (default 170) it is killed
    and [Failure] is raised. *)

val run : ?env:(string * string) list -> ?unset:string list -> ?stdout:Unix.file_descr ->
  ?timeout_s:float -> string -> string list -> unit
(** Spawn and wait; [Failure] unless the child exits 0. *)

val kill_all : unit -> unit
(** SIGKILLs and reaps every child still running (registered
    [at_exit]). *)

val peak_rss_mb : int -> float option
(** VmHWM of a live process, in MiB, from /proc/PID/status. *)

val self_peak_rss_mb : unit -> float option

val nproc : unit -> int
(** Online processors (sched affinity as reported by [nproc]). *)
