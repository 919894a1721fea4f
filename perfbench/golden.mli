(** Recorded reference digests, one ["DIGEST NAME"] line each, kept
    under perfbench/golden/ as fixed data, recorded on the commit that
    defined the benchmark.  A run compares its outputs to them: the
    table rendering, every distinct reply, the atlas store.  A change
    that legitimately changes an output edits the digest by hand. *)

type t = (string, string) Hashtbl.t

val load : string -> t
(** Empty when the file does not exist. *)

val md5 : string -> string
(** Hex MD5 of a string. *)

val dir_digest : string -> string
(** MD5 over the sorted relative paths and contents of every regular
    file under a directory. *)
