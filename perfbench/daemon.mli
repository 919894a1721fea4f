(** A [speedup serve] child on a Unix-domain socket. *)

type t

val start :
  speedup:string -> sock:string -> store:string -> workers:int -> jobs:int ->
  ?access_log:string -> unit -> t
(** Launches the daemon with [CERT_CACHE_DIR=store] and
    [SPEEDUP_JOBS=jobs], and returns once it reports that it listens.
    [sock] may be relative: the daemon runs in the benchmark's working
    directory. *)

val pid : t -> int

val rpc : t -> string -> string
(** Sends one request line on a fresh connection and returns the reply
    line.  @raise Failure on a transport error. *)

val stats : t -> Jsonl.t
(** The [stats] reply's result object. *)

val stop : t -> unit
(** [shutdown], then waits for a clean drain.  @raise Failure when the
    daemon does not exit 0. *)

val connect : string -> Unix.file_descr
(** Connected stream socket to a Unix-domain path. *)
